"""The project-specific lint rules: this repo's invariants, mechanized.

Each rule guards one correctness rule the codebase has relied on since
the PR that introduced it (rationale and history in ``INVARIANTS.md``):

====  ====================  ==============================================
id    name                  invariant
====  ====================  ==============================================
R1    parity-reference      every registered fast path keeps its bit-exact
                            scalar reference and is pinned by a parity test
R2    task-key-hygiene      every ``ExperimentConfig`` field is classified:
                            normalised in ``task_key()`` (runtime knob) or
                            declared numbers-affecting — never unclassified
R3    worker-seeding        worker-importable code never touches legacy
                            ``np.random`` globals or unseeded
                            ``default_rng()``; randomness flows from
                            ``SeedSequence``/``spawn_seeds``
R4    plan-kernel-alloc     plan kernel closures (``step`` inside a
                            ``plan_*``/``_plan*`` hook) are allocation-free:
                            no allocating numpy constructors, no ufuncs
                            without ``out=``, no ``.astype``/``.copy``
R5    shm-lifetime          a module creating shared-memory segments must
                            also reach an unlink/sweep path
R6    envelope-safety       ``TaskFailure`` envelopes carry strings, never
                            bare exception objects
R7    pool-construction     process pools are built only by
                            ``repro.runtime.backends._new_pool``, which
                            budgets each worker's BLAS threads, and
                            thread pools only by
                            ``repro.runtime.blas.split_pool``
====  ====================  ==============================================

The rules are deliberately declarative where possible — the fast-path
table of R1 and the numbers-affecting allowlist of R2 are the points a
reviewer edits when the architecture legitimately changes, and the lint
failure is the prompt to think about it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.analysis.lint import (
    Checker,
    Finding,
    Project,
    ProjectChecker,
    SourceFile,
)


def _defined_names(tree: ast.AST) -> "set[str]":
    """Every function/class name defined anywhere in ``tree``."""
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
    }


def _call_name(func: ast.expr) -> Optional[str]:
    """The trailing name of a call target (``x.y.z(...)`` -> ``"z"``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _word_in(name: str, text: str) -> bool:
    return re.search(rf"\b{re.escape(name)}\b", text) is not None


# ----------------------------------------------------------------------
# R1 — parity-reference guard.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FastPathSpec:
    """One registered fast path and the reference that pins it.

    ``fast_defs`` must be defined in ``fast_module`` and
    ``reference_defs`` in ``reference_module``; at least one test file
    must name one of ``test_fast_names`` *and* one of
    ``test_reference_names`` (word-boundary match) — that is the parity
    test.  Renaming or deleting any of these fails R1, which is the
    point: the lint failure is where the reviewer decides the parity
    story for the new shape of the code.
    """

    key: str
    fast_module: str
    fast_defs: tuple
    reference_module: str
    reference_defs: tuple
    test_fast_names: tuple
    test_reference_names: tuple


#: The registered fast paths.  Editing this table is the sanctioned way
#: to teach R1 about a new fast path (or a renamed reference).
FAST_PATHS = (
    FastPathSpec(
        key="entropy-code",
        fast_module="src/repro/jpeg/codec.py",
        fast_defs=("entropy_code", "_ChannelCoder"),
        reference_module="src/repro/jpeg/codec.py",
        reference_defs=("encode_scalar", "decode_scalar"),
        test_fast_names=("_ChannelCoder", "entropy_code"),
        test_reference_names=("encode_scalar", "decode_scalar"),
    ),
    FastPathSpec(
        key="inference-plan",
        fast_module="src/repro/nn/engine.py",
        fast_defs=("InferencePlan", "PlanBuilder"),
        reference_module="src/repro/nn/base.py",
        reference_defs=("predict_proba_dynamic",),
        test_fast_names=("InferencePlan", "PlanError", "engine"),
        test_reference_names=("predict_proba_dynamic",),
    ),
    FastPathSpec(
        key="im2col",
        fast_module="src/repro/nn/im2col.py",
        fast_defs=("im2col_patches", "col2im_patches"),
        reference_module="src/repro/nn/im2col.py",
        reference_defs=("im2col_scalar", "col2im_scalar"),
        test_fast_names=("im2col_patches", "col2im_patches"),
        test_reference_names=("im2col_scalar", "col2im_scalar"),
    ),
)


class ParityReferenceRule(ProjectChecker):
    """R1: every registered fast path keeps its scalar reference."""

    rule_id = "R1"
    name = "parity-reference"
    description = (
        "a registered fast path must keep its bit-exact scalar reference "
        "and be pinned by at least one parity test"
    )
    paths = ("src/",)

    specs = FAST_PATHS

    def check_project(self, project: Project) -> Iterator[Finding]:
        test_sources = None
        for spec in self.specs:
            fast = project.module(spec.fast_module)
            if fast is None:
                yield Finding(
                    rule=self.rule_id, path=spec.fast_module, line=1, col=0,
                    message=(
                        f"[{spec.key}] declared fast-path module is missing; "
                        f"update the FAST_PATHS table if it moved"
                    ),
                )
                continue
            if fast.tree is None:
                continue  # unparsable files are reported as LINT-SYNTAX
            defined = _defined_names(fast.tree)
            for symbol in spec.fast_defs:
                if symbol not in defined:
                    yield Finding(
                        rule=self.rule_id, path=spec.fast_module,
                        line=1, col=0,
                        message=(
                            f"[{spec.key}] fast-path symbol {symbol!r} is "
                            f"no longer defined here; update FAST_PATHS if "
                            f"it moved"
                        ),
                    )
            reference = project.module(spec.reference_module)
            if reference is None or reference.tree is None:
                yield Finding(
                    rule=self.rule_id, path=spec.reference_module,
                    line=1, col=0,
                    message=(
                        f"[{spec.key}] reference module is missing; the "
                        f"fast path has lost its scalar reference"
                    ),
                )
                continue
            reference_defined = _defined_names(reference.tree)
            missing = [
                symbol for symbol in spec.reference_defs
                if symbol not in reference_defined
            ]
            for symbol in missing:
                yield Finding(
                    rule=self.rule_id, path=spec.reference_module,
                    line=1, col=0,
                    message=(
                        f"[{spec.key}] scalar reference {symbol!r} was "
                        f"removed; parity is sacred — every fast path keeps "
                        f"its bit-exact reference"
                    ),
                )
            if test_sources is None:
                test_sources = [
                    (module.relpath, module.source)
                    for module in project.test_files()
                ]
            pinned = any(
                any(_word_in(name, source) for name in spec.test_fast_names)
                and any(
                    _word_in(name, source)
                    for name in spec.test_reference_names
                )
                for _, source in test_sources
            )
            if not pinned:
                yield Finding(
                    rule=self.rule_id, path=spec.fast_module, line=1, col=0,
                    message=(
                        f"[{spec.key}] no test under tests/ names both the "
                        f"fast path ({'/'.join(spec.test_fast_names)}) and "
                        f"its reference "
                        f"({'/'.join(spec.test_reference_names)}); add or "
                        f"restore the parity test"
                    ),
                )


# ----------------------------------------------------------------------
# R2 — task-key hygiene.
# ----------------------------------------------------------------------

#: Fields that legitimately change experiment numbers (and therefore
#: store addresses).  A new ``ExperimentConfig`` field must either be
#: normalised away in ``task_key()`` (a pure runtime knob) or added
#: here — R2 refuses unclassified fields, so a knob can neither
#: silently change store addresses nor silently fail to.
NUMBERS_AFFECTING_FIELDS = frozenset({
    "images_per_class",
    "image_size",
    "noise_std",
    "test_fraction",
    "epochs",
    "batch_size",
    "learning_rate",
    "model_name",
    "compute_dtype",
    "dataset_seed",
    "split_seed",
    "model_seed",
    "sampling_interval",
})


class TaskKeyHygieneRule(Checker):
    """R2: every ``ExperimentConfig`` field is explicitly classified."""

    rule_id = "R2"
    name = "task-key-hygiene"
    description = (
        "every ExperimentConfig field must be either normalised in "
        "task_key() or declared in the numbers-affecting allowlist"
    )
    paths = ("src/",)

    #: Overridable for fixtures; the repo allowlist is module-level so
    #: editing it is a reviewed diff.
    allowlist = NUMBERS_AFFECTING_FIELDS

    def check(self, module: SourceFile) -> Iterator[Finding]:
        if module.tree is None:
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.ClassDef)
                and node.name == "ExperimentConfig"
            ):
                yield from self._check_class(module, node)

    def _check_class(
        self, module: SourceFile, node: ast.ClassDef
    ) -> Iterator[Finding]:
        fields = {}
        task_key = None
        for statement in node.body:
            if isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                annotation = ast.dump(statement.annotation)
                if "ClassVar" in annotation:
                    continue
                fields[statement.target.id] = statement
            elif (
                isinstance(statement, ast.FunctionDef)
                and statement.name == "task_key"
            ):
                task_key = statement
        if task_key is None:
            yield self.finding(
                module, node,
                "ExperimentConfig must define task_key() normalising its "
                "runtime knobs",
            )
            return
        normalised, opaque = self._normalised_fields(task_key)
        if opaque:
            yield self.finding(
                module, task_key,
                "task_key() must normalise with literal keyword arguments "
                "to replace(); **kwargs cannot be cross-referenced",
            )
            return
        if normalised is None:
            yield self.finding(
                module, task_key,
                "task_key() does not call replace(); the runtime knobs are "
                "not being normalised",
            )
            return
        for name in sorted(normalised - set(fields)):
            yield self.finding(
                module, task_key,
                f"task_key() normalises {name!r}, which is not an "
                f"ExperimentConfig field",
            )
        for name, statement in fields.items():
            in_allowlist = name in self.allowlist
            is_normalised = name in normalised
            if in_allowlist and is_normalised:
                yield self.finding(
                    module, statement,
                    f"field {name!r} is both normalised in task_key() and "
                    f"declared numbers-affecting; it must be exactly one",
                )
            elif not in_allowlist and not is_normalised:
                yield self.finding(
                    module, statement,
                    f"field {name!r} is unclassified: normalise it in "
                    f"task_key() (runtime knob) or add it to the "
                    f"numbers-affecting allowlist "
                    f"(lint_rules.NUMBERS_AFFECTING_FIELDS)",
                )
        for name in sorted(self.allowlist - set(fields)):
            yield self.finding(
                module, node,
                f"allowlisted field {name!r} is not an ExperimentConfig "
                f"field; remove it from NUMBERS_AFFECTING_FIELDS",
            )

    @staticmethod
    def _normalised_fields(task_key: ast.FunctionDef):
        """Keyword names of the ``replace(self, ...)`` call, if any."""
        normalised = None
        opaque = False
        for node in ast.walk(task_key):
            if not isinstance(node, ast.Call):
                continue
            if _call_name(node.func) != "replace":
                continue
            names = set()
            for keyword in node.keywords:
                if keyword.arg is None:
                    opaque = True
                else:
                    names.add(keyword.arg)
            normalised = names if normalised is None else normalised | names
        return normalised, opaque


# ----------------------------------------------------------------------
# R3 — fork/worker seeding discipline.
# ----------------------------------------------------------------------

#: ``np.random`` attributes that are legitimate in worker-importable
#: code: the modern generator constructors and seeding types.  Anything
#: else on the module is the legacy global-state API.
_BLESSED_RANDOM_ATTRS = frozenset({
    "default_rng",
    "SeedSequence",
    "Generator",
    "BitGenerator",
    "PCG64",
    "Philox",
    "SFC64",
    "MT19937",
})


class _NumpyAliasVisitor(ast.NodeVisitor):
    """Track how ``numpy`` and ``numpy.random`` are bound in a module."""

    def __init__(self) -> None:
        self.numpy_names: "set[str]" = set()
        self.random_names: "set[str]" = set()
        self.direct: "dict[str, str]" = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "numpy":
                self.numpy_names.add(bound)
            elif alias.name == "numpy.random":
                if alias.asname:
                    self.random_names.add(alias.asname)
                else:
                    self.numpy_names.add("numpy")

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self.random_names.add(alias.asname or "random")
        elif node.module == "numpy.random":
            for alias in node.names:
                self.direct[alias.asname or alias.name] = alias.name


def _np_random_symbol(
    func: ast.expr, aliases: _NumpyAliasVisitor
) -> Optional[str]:
    """The ``numpy.random`` attribute a call targets, or ``None``."""
    if isinstance(func, ast.Name):
        return aliases.direct.get(func.id)
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    if isinstance(value, ast.Name) and value.id in aliases.random_names:
        return func.attr
    if (
        isinstance(value, ast.Attribute)
        and value.attr == "random"
        and isinstance(value.value, ast.Name)
        and value.value.id in aliases.numpy_names
    ):
        return func.attr
    return None


class WorkerSeedingRule(Checker):
    """R3: worker-importable randomness flows from ``SeedSequence``."""

    rule_id = "R3"
    name = "worker-seeding"
    description = (
        "no legacy np.random globals and no unseeded default_rng() in "
        "worker-importable code; seed via spawn_seeds/SeedSequence"
    )
    paths = ("src/",)

    def check(self, module: SourceFile) -> Iterator[Finding]:
        if module.tree is None:
            return
        aliases = _NumpyAliasVisitor()
        aliases.visit(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            symbol = _np_random_symbol(node.func, aliases)
            if symbol is None:
                continue
            if symbol == "default_rng":
                if not node.args and not node.keywords:
                    yield self.finding(
                        module, node,
                        "unseeded default_rng() in worker-importable code: "
                        "seed it from spawn_seeds/SeedSequence (or thread "
                        "an explicit rng through)",
                    )
            elif symbol not in _BLESSED_RANDOM_ATTRS:
                yield self.finding(
                    module, node,
                    f"legacy np.random.{symbol}() shares global RNG state "
                    f"across forked workers; use a Generator seeded from "
                    f"spawn_seeds/SeedSequence",
                )


# ----------------------------------------------------------------------
# R4 — zero-allocation plan kernels.
# ----------------------------------------------------------------------

#: numpy constructors that always allocate a fresh data buffer.
_ALLOCATING_CALLS = frozenset({
    "empty", "zeros", "ones", "full",
    "empty_like", "zeros_like", "ones_like", "full_like",
    "array", "asarray", "ascontiguousarray", "asfortranarray",
    "arange", "linspace",
    "concatenate", "stack", "hstack", "vstack", "dstack", "column_stack",
    "tile", "repeat", "pad", "copy", "where", "outer", "kron", "meshgrid",
})

#: numpy functions a kernel may call only with an explicit ``out=``
#: destination (arena slot or scratch); without it they allocate the
#: result on every forward pass.
_OUT_REQUIRED_CALLS = frozenset({
    "matmul", "dot", "einsum",
    "add", "subtract", "multiply", "divide", "true_divide", "power",
    "maximum", "minimum", "clip",
    "exp", "tanh", "sqrt", "square", "negative", "abs", "absolute",
    "reciprocal", "log",
    "sum", "mean", "max", "min", "amax", "amin", "prod",
})

#: ndarray methods that copy the data buffer.
_ALLOCATING_METHODS = frozenset({"astype", "copy", "flatten", "tolist"})

#: Names marking a plan-emission hook: kernels (``step`` closures)
#: defined anywhere below one of these must be allocation-free.
_PLAN_PREFIXES = ("plan_inference", "plan_fused_relu", "_plan")


class PlanKernelAllocationRule(Checker):
    """R4: plan kernel closures never allocate after warmup."""

    rule_id = "R4"
    name = "plan-kernel-alloc"
    description = (
        "kernel closures (def step) inside plan_inference/plan_fused_relu "
        "hooks must be allocation-free: no allocating numpy constructors, "
        "no out=-less ufuncs, no .astype/.copy"
    )
    paths = ("src/repro/nn/",)

    def check(self, module: SourceFile) -> Iterator[Finding]:
        if module.tree is None:
            return
        aliases = _NumpyAliasVisitor()
        aliases.visit(module.tree)
        for kernel in self._kernels(module.tree):
            yield from self._check_kernel(module, kernel, aliases)

    @staticmethod
    def _kernels(tree: ast.AST) -> "list[ast.FunctionDef]":
        """``step`` closures nested below a plan-emission hook."""
        kernels = []

        def walk(node: ast.AST, in_plan: bool) -> None:
            for child in ast.iter_child_nodes(node):
                child_in_plan = in_plan
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    if child.name.startswith(_PLAN_PREFIXES):
                        child_in_plan = True
                    if in_plan and child.name == "step":
                        kernels.append(child)
                        continue  # never collect a step nested in a step
                walk(child, child_in_plan)

        walk(tree, False)
        return kernels

    def _check_kernel(
        self,
        module: SourceFile,
        kernel: ast.FunctionDef,
        aliases: _NumpyAliasVisitor,
    ) -> Iterator[Finding]:
        for node in ast.walk(kernel):
            if not isinstance(node, ast.Call):
                continue
            method = (
                node.func.attr
                if isinstance(node.func, ast.Attribute) else None
            )
            numpy_symbol = self._numpy_symbol(node.func, aliases)
            if numpy_symbol in _ALLOCATING_CALLS:
                yield self.finding(
                    module, node,
                    f"np.{numpy_symbol}() allocates inside a plan kernel; "
                    f"allocate at build time (builder.scratch/activation) "
                    f"and write through out=/views",
                )
            elif numpy_symbol in _OUT_REQUIRED_CALLS:
                keywords = {keyword.arg for keyword in node.keywords}
                if "out" not in keywords:
                    yield self.finding(
                        module, node,
                        f"np.{numpy_symbol}() without out= allocates its "
                        f"result on every kernel run; write into an arena "
                        f"slot or scratch buffer",
                    )
            elif numpy_symbol is None and method in _ALLOCATING_METHODS:
                yield self.finding(
                    module, node,
                    f".{method}() copies the data buffer inside a plan "
                    f"kernel; stage through a preallocated buffer instead",
                )

    @staticmethod
    def _numpy_symbol(
        func: ast.expr, aliases: _NumpyAliasVisitor
    ) -> Optional[str]:
        if isinstance(func, ast.Name):
            # Direct imports (from numpy import matmul) are rare here;
            # treat a name as numpy's only when explicitly imported.
            return None
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            if func.value.id in aliases.numpy_names:
                return func.attr
        return None


# ----------------------------------------------------------------------
# R5 — shared-memory lifetime pairing.
# ----------------------------------------------------------------------


class ShmLifetimeRule(Checker):
    """R5: segment creation and unlink/sweep live in the same module."""

    rule_id = "R5"
    name = "shm-lifetime"
    description = (
        "a module creating shared-memory segments (SharedMemory "
        "create=True / create_stack) must also reach an unlink, "
        "sweep_orphans or finally-guarded close path"
    )
    paths = ("src/",)

    _release_names = frozenset({"unlink", "sweep_orphans", "_unlink_quiet"})

    def check(self, module: SourceFile) -> Iterator[Finding]:
        if module.tree is None:
            return
        creations = self._creation_sites(module.tree)
        if not creations:
            return
        if self._has_release(module.tree):
            return
        for node, what in creations:
            yield self.finding(
                module, node,
                f"{what} creates a shared-memory segment but this module "
                f"has no unlink/sweep_orphans/finally-close path; a crash "
                f"here leaks /dev/shm segments",
            )

    @staticmethod
    def _creation_sites(tree: ast.AST) -> "list[tuple]":
        sites = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node.func)
            if name == "SharedMemory":
                creating = any(
                    keyword.arg == "create"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                    for keyword in node.keywords
                )
                if creating:
                    sites.append((node, "SharedMemory(create=True)"))
            elif name == "create_stack":
                sites.append((node, "create_stack()"))
        return sites

    def _has_release(self, tree: ast.AST) -> bool:
        release = False

        def walk(node: ast.AST, in_finally: bool) -> None:
            nonlocal release
            if release:
                return
            if isinstance(node, ast.Call):
                name = _call_name(node.func)
                if name in self._release_names:
                    release = True
                    return
                if name == "close" and in_finally:
                    release = True
                    return
            if isinstance(node, ast.Try):
                for child in node.body + node.orelse:
                    walk(child, in_finally)
                for handler in node.handlers:
                    walk(handler, in_finally)
                for child in node.finalbody:
                    walk(child, True)
                return
            for child in ast.iter_child_nodes(node):
                walk(child, in_finally)

        walk(tree, False)
        return release


# ----------------------------------------------------------------------
# R6 — envelope safety.
# ----------------------------------------------------------------------

#: ``TaskFailure`` fields that must hold JSON-safe strings — assigning a
#: live exception object here would pickle (or JSON-fail) across the
#: runtime boundary.
_ENVELOPE_STRING_FIELDS = frozenset({
    "kind", "error_type", "message", "traceback",
})


class EnvelopeSafetyRule(Checker):
    """R6: ``TaskFailure`` envelopes carry strings, never exceptions."""

    rule_id = "R6"
    name = "envelope-safety"
    description = (
        "TaskFailure string fields must not receive bare exception "
        "objects, and envelopes are built with keyword arguments"
    )
    paths = ("src/",)

    def check(self, module: SourceFile) -> Iterator[Finding]:
        if module.tree is None:
            return
        yield from self._walk(module, module.tree, frozenset())

    def _walk(
        self, module: SourceFile, node: ast.AST, caught: frozenset
    ) -> Iterator[Finding]:
        if isinstance(node, ast.ExceptHandler) and node.name:
            caught = caught | {node.name}
        if isinstance(node, ast.Call) and _call_name(node.func) == "TaskFailure":
            yield from self._check_envelope(module, node, caught)
        for child in ast.iter_child_nodes(node):
            yield from self._walk(module, child, caught)

    def _check_envelope(
        self, module: SourceFile, node: ast.Call, caught: frozenset
    ) -> Iterator[Finding]:
        if node.args:
            yield self.finding(
                module, node,
                "construct TaskFailure with keyword arguments only, so "
                "the envelope fields stay auditable",
            )
        for keyword in node.keywords:
            if keyword.arg not in _ENVELOPE_STRING_FIELDS:
                continue
            value = keyword.value
            if isinstance(value, ast.Name) and value.id in caught:
                yield self.finding(
                    module, value,
                    f"TaskFailure field {keyword.arg!r} receives the bare "
                    f"caught exception {value.id!r}; envelopes must carry "
                    f"JSON/pickle-safe strings — use str({value.id}) or "
                    f"type({value.id}).__name__",
                )


# ----------------------------------------------------------------------
# R7 — pool construction.
# ----------------------------------------------------------------------

#: The module and module-level function that alone may build a process
#: pool: it gives each forked worker its CPU share of BLAS threads.
POOL_FACTORY_MODULE = "src/repro/runtime/backends.py"
POOL_FACTORY = "_new_pool"

#: The module and module-level function that alone may build a thread
#: pool: it pins BLAS to one thread while its threads live, and joins
#: them before it returns, so no thread is alive when ``_new_pool`` forks.
THREAD_POOL_FACTORY_MODULE = "src/repro/runtime/blas.py"
THREAD_POOL_FACTORY = "split_pool"

#: Call names that construct a process pool, bare or as an attribute
#: (``multiprocessing.Pool``, ``context.Pool``).
_POOL_CONSTRUCTORS = frozenset({"ProcessPoolExecutor", "Pool"})

#: Call names that construct a thread pool, bare or as an attribute.
_THREAD_POOL_CONSTRUCTORS = frozenset({"ThreadPoolExecutor"})


def pool_constructions(
    tree: ast.AST, constructors: frozenset = _POOL_CONSTRUCTORS
) -> "list[ast.Call]":
    """Every construction call in ``tree`` of a pool named in ``constructors``.

    By default these are the process pools.  A bare ``Pool(...)`` counts
    only when ``Pool`` was imported under that name; an import alias of
    any constructor counts too.
    """
    bare = set(constructors) - {"Pool"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            bare.update(
                alias.asname or alias.name for alias in node.names
                if alias.name in constructors
            )
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in constructors
        ) or (isinstance(func, ast.Name) and func.id in bare):
            calls.append(node)
    return calls


#: (constructors, factory module, factory, message) of each pool kind.
_POOL_KINDS = (
    (
        _POOL_CONSTRUCTORS, POOL_FACTORY_MODULE, POOL_FACTORY,
        "process pool built outside "
        "repro.runtime.backends._new_pool: its workers inherit the "
        "parent's all-CPU BLAS thread pool and oversubscribe the "
        "CPUs; get the pool from _new_pool or ForkedBackend",
    ),
    (
        _THREAD_POOL_CONSTRUCTORS, THREAD_POOL_FACTORY_MODULE,
        THREAD_POOL_FACTORY,
        "thread pool built outside repro.runtime.blas.split_pool: its "
        "threads share the process's all-CPU BLAS thread pool and "
        "oversubscribe the CPUs, and one alive at a fork is lost in the "
        "child; split batch work with split_batch inside split_pool",
    ),
)


class PoolConstructionRule(Checker):
    """R7: pools are built only by ``_new_pool`` and ``split_pool``."""

    rule_id = "R7"
    name = "pool-construction"
    description = (
        "ProcessPoolExecutor(...), multiprocessing.Pool(...) and "
        "<context>.Pool(...) are called only inside "
        "repro.runtime.backends._new_pool, which budgets each worker's "
        "BLAS threads, and ThreadPoolExecutor(...) only inside "
        "repro.runtime.blas.split_pool, which pins BLAS to one thread"
    )
    paths = ("src/",)

    def check(self, module: SourceFile) -> Iterator[Finding]:
        if module.tree is None:
            return
        for constructors, factory_module, factory, message in _POOL_KINDS:
            exempt = set()
            if module.relpath == factory_module:
                for statement in module.tree.body:
                    if (
                        isinstance(statement, ast.FunctionDef)
                        and statement.name == factory
                    ):
                        exempt.update(id(node) for node in ast.walk(statement))
            for node in pool_constructions(module.tree, constructors):
                if id(node) not in exempt:
                    yield self.finding(module, node, message)


def all_checkers() -> "list[Checker]":
    """Fresh instances of every project rule, in rule-id order."""
    return [
        ParityReferenceRule(),
        TaskKeyHygieneRule(),
        WorkerSeedingRule(),
        PlanKernelAllocationRule(),
        ShmLifetimeRule(),
        EnvelopeSafetyRule(),
        PoolConstructionRule(),
    ]
