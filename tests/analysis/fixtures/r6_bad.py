"""R6 bad: bare exception in the envelope, positional construction."""


def fail(index, attempt, TaskFailure):
    try:
        raise ValueError("boom")
    except ValueError as error:
        return TaskFailure(
            index=index,
            kind="exception",
            error_type=type(error).__name__,
            message=error,
            attempts=attempt,
        )


def positional(TaskFailure, index):
    return TaskFailure(index, "exception", "ValueError", "boom", 1)

