"""R6 clean: stringified envelope fields, keyword construction."""


def fail(index, attempt, TaskFailure):
    try:
        raise ValueError("boom")
    except ValueError as error:
        return TaskFailure(
            index=index,
            kind="exception",
            error_type=type(error).__name__,
            message=str(error),
            attempts=attempt,
            error=error,
        )

