"""The ``warlock lint`` framework: AST rules over the engine's contracts.

The advisor's correctness rests on *conventions*: bit-identical scalar
accumulation order in the parity-critical cost code, an
:class:`~repro.engine.EvaluationCache` that is only touched under the
service's per-entry lock, picklable value payloads across the process-pool
boundary, and stable wire types.  This package encodes those conventions as
executable rules built on the standard library's :mod:`ast` — no new
dependencies — so CI can enforce what review used to.

Architecture (all stdlib):

* :class:`ModuleInfo` parses one file: source, AST, and the ``# lint:``
  directive comments extracted via :mod:`tokenize` (suppressions, module
  markers, class annotations).
* :class:`ProjectIndex` is the cross-file pass: rules may :meth:`Rule.collect`
  facts from every scanned module (e.g. which classes are annotated
  ``# lint: not-thread-safe``) before any :meth:`Rule.check` runs.
* :class:`Rule` subclasses register themselves in :data:`RULES` via
  :func:`register`; each yields :class:`Finding` objects.
* Suppressions are per-rule comments — ``# lint: disable=rule-name`` on the
  offending line or on a standalone comment line directly above it, with an
  optional ``-- reason`` tail that documents *why* the pattern is safe here.

Directive comment grammar (one per comment)::

    # lint: disable=rule-a,rule-b -- reason          suppression
    # lint: parity-critical                          module marker (rule scope)
    # lint: single-threaded                          module marker (rule scope)
    # lint: service-module                           module marker (rule scope)
    # lint: wire-types                               module marker (rule scope)
    # lint: not-thread-safe instances=cache,session  class annotation

Class annotations stand on the line directly above the ``class`` statement
(or trail on the same line) and are harvested project-wide during the collect
pass, so the rules see them no matter which file is being checked.
"""

from __future__ import annotations

import ast
import io
import os
import tokenize
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:
    from repro.lint.graphs import ProjectGraph

__all__ = [
    "Directive",
    "Finding",
    "LintError",
    "LintResult",
    "ModuleInfo",
    "ProjectIndex",
    "Rule",
    "RULES",
    "ThreadUnsafeClass",
    "collect_files",
    "register",
    "run_lint",
]

#: Module markers a ``# lint:`` comment may declare (scope switches for rules).
MODULE_MARKERS = frozenset(
    ["parity-critical", "single-threaded", "service-module", "wire-types"]
)


class LintError(Exception):
    """Raised for unusable lint input (bad path, unknown rule, bad baseline)."""


@dataclass(frozen=True)
class Directive:
    """One parsed ``# lint:`` comment."""

    line: int
    body: str
    #: True when the comment is the only content on its line (a standalone
    #: directive covers the next code line; a trailing one covers its own).
    standalone: bool


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: The stripped source line, for reporters and baseline fingerprints.
    snippet: str = ""
    #: 1-based index among findings sharing (rule, path, snippet) in one run,
    #: assigned by :func:`run_lint` in source order.  Keeps two identical
    #: offending lines in one file from collapsing onto one baseline entry.
    occurrence: int = 1
    #: Optional source-to-sink call chain (graph rules), rendered by
    #: ``warlock lint --explain``.
    chain: Tuple[str, ...] = ()

    @property
    def fingerprint(self) -> str:
        """Content identity used by the committed baseline.

        Deliberately line-number free (``rule:path:snippet``): re-ordering a
        file must not churn the baseline, while editing the offending line
        surfaces the finding again for a fresh decision.  Repeated identical
        snippets in one file are disambiguated with an occurrence suffix
        (``#2``, ``#3`` ...) so each real finding owns its own fingerprint;
        the first occurrence keeps the bare form for baseline stability.
        """
        base = f"{self.rule}:{self.path}:{self.snippet}"
        return base if self.occurrence <= 1 else f"{base}#{self.occurrence}"

    def describe(self) -> str:
        """One reporter line: ``path:line:col: rule: message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


@dataclass(frozen=True)
class ThreadUnsafeClass:
    """A class annotated ``# lint: not-thread-safe`` somewhere in the project."""

    name: str
    path: str
    #: Receiver-name hints: a call ``<...>.hint.method(...)`` is treated as a
    #: call on an instance of this class (lexical analysis cannot type-infer).
    instance_hints: Tuple[str, ...]
    #: Every method the class defines (harvested from its body).
    methods: Tuple[str, ...]


def _parse_instance_hints(body: str) -> Tuple[str, ...]:
    """The ``instances=a,b`` tail of a ``not-thread-safe`` annotation."""
    for part in body.split():
        if part.startswith("instances="):
            return tuple(
                hint.strip() for hint in part[len("instances=") :].split(",") if hint.strip()
            )
    return ()


class ModuleInfo:
    """One parsed source file plus its ``# lint:`` directives."""

    def __init__(self, path: str, source: str, relative_to: Optional[str] = None) -> None:
        self.path = path.replace(os.sep, "/")
        self.source = source
        try:
            self.tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            raise LintError(f"{path}: cannot parse: {error}") from error
        self.lines = source.splitlines()
        self.directives: List[Directive] = list(_iter_directives(source, path))
        #: line -> set of suppressed rule names ("*" suppresses every rule).
        self.suppressions: Dict[int, Set[str]] = {}
        #: Module-scope markers declared anywhere in the file.
        self.markers: Set[str] = set()
        #: Annotated classes defined in this module.
        self.thread_unsafe_classes: List[ThreadUnsafeClass] = []
        self._apply_directives()

    # -- directives -------------------------------------------------------------

    def _apply_directives(self) -> None:
        class_lines = {
            node.lineno: node
            for node in ast.walk(self.tree)
            if isinstance(node, ast.ClassDef)
        }
        for directive in self.directives:
            body = directive.body
            if body.startswith("disable="):
                spec = body[len("disable=") :].split("--", 1)[0]
                rules = {name.strip() for name in spec.split(",") if name.strip()}
                # A standalone suppression covers the next source line; a
                # trailing one covers its own line.
                target = directive.line + 1 if directive.standalone else directive.line
                self.suppressions.setdefault(target, set()).update(rules)
            elif body.split()[0] == "not-thread-safe":
                node = class_lines.get(
                    directive.line + 1 if directive.standalone else directive.line
                )
                if node is None:
                    raise LintError(
                        f"{self.path}:{directive.line}: 'not-thread-safe' "
                        f"annotation must sit on (or directly above) a class "
                        f"statement"
                    )
                methods = tuple(
                    item.name
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
                self.thread_unsafe_classes.append(
                    ThreadUnsafeClass(
                        name=node.name,
                        path=self.path,
                        instance_hints=_parse_instance_hints(body),
                        methods=methods,
                    )
                )
            elif body.split()[0] in MODULE_MARKERS:
                self.markers.add(body.split()[0])
            else:
                raise LintError(
                    f"{self.path}:{directive.line}: unknown lint directive "
                    f"{body.split()[0]!r}"
                )

    # -- helpers for rules ------------------------------------------------------

    def snippet(self, line: int) -> str:
        """The stripped source text of ``line`` (1-based; '' out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def suppressed(self, rule: str, line: int) -> bool:
        """True when ``rule`` is suppressed at ``line``."""
        rules = self.suppressions.get(line)
        return bool(rules) and (rule in rules or "*" in rules)

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule,
            path=self.path,
            line=line,
            col=col,
            message=message,
            snippet=self.snippet(line),
        )


def _iter_directives(source: str, path: str) -> Iterator[Directive]:
    """Extract ``# lint:`` comments with :mod:`tokenize` (string-literal safe)."""
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            text = token.string.lstrip("#").strip()
            if not text.startswith("lint:"):
                continue
            body = text[len("lint:") :].strip()
            if not body:
                raise LintError(f"{path}:{token.start[0]}: empty lint directive")
            standalone = token.line.strip().startswith("#")
            yield Directive(line=token.start[0], body=body, standalone=standalone)
    except tokenize.TokenError:
        # ast.parse already vetted the syntax; a tokenizer hiccup (e.g. on a
        # trailing backslash) just means no directives past that point.
        return


@dataclass
class ProjectIndex:
    """Cross-file facts the collect pass accumulates for the check pass."""

    thread_unsafe: Dict[str, ThreadUnsafeClass] = field(default_factory=dict)
    #: The whole-program import/call graphs (see :mod:`repro.lint.graphs`),
    #: built once per run before any rule's collect pass.
    graph: Optional["ProjectGraph"] = None

    @property
    def guarded_methods(self) -> Set[str]:
        """Every method name of every ``not-thread-safe`` class."""
        methods: Set[str] = set()
        for info in self.thread_unsafe.values():
            methods.update(info.methods)
        return methods

    @property
    def instance_hints(self) -> Set[str]:
        """Every receiver-name hint of every ``not-thread-safe`` class."""
        hints: Set[str] = set()
        for info in self.thread_unsafe.values():
            hints.update(info.instance_hints)
        return hints


class Rule:
    """One lint rule.  Subclass, set ``name``/``description``, register."""

    name: str = ""
    description: str = ""

    def collect(self, module: ModuleInfo, project: ProjectIndex) -> None:
        """First pass over every module: accumulate cross-file facts."""

    def check(self, module: ModuleInfo, project: ProjectIndex) -> Iterator[Finding]:
        """Second pass: yield findings for ``module``."""
        raise NotImplementedError
        yield  # pragma: no cover


#: The global rule registry: rule name -> rule class.
RULES: Dict[str, type] = {}


def register(rule_cls: type) -> type:
    """Class decorator adding a :class:`Rule` subclass to :data:`RULES`."""
    if not rule_cls.name:
        raise LintError(f"rule {rule_cls.__name__} has no name")
    if rule_cls.name in RULES:
        raise LintError(f"duplicate rule name {rule_cls.name!r}")
    RULES[rule_cls.name] = rule_cls
    return rule_cls


def collect_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``*.py`` files."""
    files: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d != "__pycache__")
                for name in sorted(names):
                    if name.endswith(".py"):
                        files.append(os.path.join(root, name))
        else:
            raise LintError(f"no such file or directory: {path}")
    # De-duplicate while preserving deterministic order.
    seen: Set[str] = set()
    unique = []
    for file in files:
        normalized = os.path.normpath(file)
        if normalized not in seen:
            seen.add(normalized)
            unique.append(file)
    return unique


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding]
    files_scanned: int
    rules: Tuple[str, ...]
    #: Findings suppressed by ``# lint: disable=`` comments (count only; the
    #: reporters surface the number so silent suppression growth is visible).
    suppressed: int = 0


def _assign_occurrences(findings: List[Finding]) -> List[Finding]:
    """Number findings sharing (rule, path, snippet) in source order.

    The fingerprint is line-number free, so two identical offending lines in
    one file would otherwise collapse onto one baseline entry and the second
    real finding would be silently absorbed.
    """
    counts: Dict[Tuple[str, str, str], int] = {}
    numbered: List[Finding] = []
    for finding in findings:
        key = (finding.rule, finding.path, finding.snippet)
        counts[key] = counts.get(key, 0) + 1
        if counts[key] > 1:
            finding = replace(finding, occurrence=counts[key])
        numbered.append(finding)
    return numbered


def run_lint(
    paths: Sequence[str],
    rule_names: Optional[Iterable[str]] = None,
) -> LintResult:
    """Run the (selected) rules over ``paths`` and return sorted findings.

    Two passes: every rule's :meth:`Rule.collect` sees every module first
    (cross-file facts like class annotations), then :meth:`Rule.check` runs
    per module.  Suppressed findings are counted but not returned.
    """
    # Import for side effect: the rule modules register themselves.  The
    # graph builder is imported here (not at module top) so framework stays
    # import-light for the sanitizer's startup path.
    from repro.lint import rules as _rules  # noqa: F401
    from repro.lint.graphs import build_project_graph

    if rule_names is None:
        selected = sorted(RULES)
    else:
        selected = []
        for name in rule_names:
            if name not in RULES:
                raise LintError(
                    f"unknown rule {name!r}; known rules: {', '.join(sorted(RULES))}"
                )
            if name not in selected:
                selected.append(name)
    instances = [RULES[name]() for name in selected]

    modules: List[ModuleInfo] = []
    for file in collect_files(paths):
        with open(file, "r", encoding="utf-8") as handle:
            source = handle.read()
        modules.append(ModuleInfo(file, source))

    project = ProjectIndex(graph=build_project_graph(modules))
    for module in modules:
        for info in module.thread_unsafe_classes:
            project.thread_unsafe[info.name] = info
        for rule in instances:
            rule.collect(module, project)

    findings: List[Finding] = []
    suppressed = 0
    for module in modules:
        for rule in instances:
            for finding in rule.check(module, project):
                if module.suppressed(finding.rule, finding.line):
                    suppressed += 1
                else:
                    findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    findings = _assign_occurrences(findings)
    return LintResult(
        findings=findings,
        files_scanned=len(modules),
        rules=tuple(selected),
        suppressed=suppressed,
    )
