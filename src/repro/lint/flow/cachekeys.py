"""K9xx — cache-key completeness analysis.

``repro.core.cache`` makes stale hits "structurally impossible" by
hashing everything the dictionary content depends on into the key.  That
guarantee is only as good as the key call staying in sync with the build
function: PR 6's sampler-aware key was exactly the near-miss this rule
exists for — a new parameter (``sampler``) started influencing signature
bytes and the key had to grow a ``sampler_token`` in the same change.

The analysis finds every **key root**: a function that both computes a
cache key (a call whose terminal name ends in ``cache_key``) and feeds
content sinks (the payload argument of ``map_chunked`` and ``*Job``
dataclass constructions — the data that workers turn into dictionary
bytes).  For each root it builds a *derivation map* — which of the root's
parameters each local variable (transitively) derives from — and diffs:

* ``K901`` *content parameter missing from the cache key* (error) — a
  root parameter reaches a content sink but no cache-key argument derives
  from it.  A parameter is **exempt** when the root re-derives it from
  key-covered parameters (``if base_simulations is None:
  base_simulations = simulate_pattern_set(timing, pattern_list)`` — the
  key's ``timing`` + ``patterns`` already pin its bytes).
* ``K902`` *key parameter with no content influence* (warning) — a
  parameter is hashed into the key but never reaches a content sink nor
  any exempt re-derivation: over-keying, which silently splits the cache
  and hides hit-rate regressions.

Infrastructure arguments (the worker callable and execution config of
``map_chunked``) are not content: backends are bit-identical by
contract, so only the payload argument is a sink.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..diagnostics import Diagnostic
from ..rules import RULES
from .callgraph import CallGraph, CallSite, FunctionInfo

__all__ = ["analyze_cache_keys", "key_root_report", "KeyRootReport"]

#: A call whose terminal name ends with this marks the key computation.
KEY_TERMINAL_SUFFIX = "cache_key"

#: ``map_chunked(fn, payload, n_items, config, ...)`` — only ``payload``
#: is content; the callable and execution config never change bytes.
PAYLOAD_CALLABLES = {"map_chunked"}
_PAYLOAD_INDEX = 1

#: Constructions shipped to workers: ``_SignatureJob(...)`` and friends.
_JOB_TERMINAL_RE = re.compile(r"Job$")

_DERIVATION_PASSES = 10


@dataclass
class KeyRootReport:
    """The parameter accounting for one key root (used by tests/docs)."""

    fn: FunctionInfo
    key_site: CallSite
    key_params: Set[str]
    content_params: Set[str]
    #: param -> deps of its in-function re-derivation (``p = f(a, b)``).
    rederived: Dict[str, Set[str]]
    #: (terminal, lineno) of each content sink that contributed params.
    sinks: List[Tuple[str, int]]


def _walk_expr(node: ast.AST):
    yield node
    for child in ast.iter_child_nodes(node):
        yield from _walk_expr(child)


def _expr_params(
    node: ast.AST, params: Set[str], var_deps: Dict[str, Set[str]]
) -> Set[str]:
    """Root parameters an expression (transitively) reads."""
    deps: Set[str] = set()
    for sub in _walk_expr(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            if sub.id in params:
                deps.add(sub.id)
            else:
                deps.update(var_deps.get(sub.id, ()))
    return deps


def _walk_own(node: ast.AST):
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def _assignment_pairs(fn: FunctionInfo) -> List[Tuple[str, ast.AST]]:
    """(target name, value expr) for every simple assignment in the body."""
    pairs: List[Tuple[str, ast.AST]] = []
    for node in _walk_own(fn.node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    pairs.append((target.id, node.value))
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for elt in target.elts:
                        if isinstance(elt, ast.Name):
                            pairs.append((elt.id, node.value))
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                pairs.append((node.target.id, node.value))
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name):
                pairs.append((node.target.id, node.value))
        elif isinstance(node, ast.For):
            if isinstance(node.target, ast.Name):
                pairs.append((node.target.id, node.iter))
            elif isinstance(node.target, (ast.Tuple, ast.List)):
                for elt in node.target.elts:
                    if isinstance(elt, ast.Name):
                        pairs.append((elt.id, node.iter))
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            if isinstance(node.optional_vars, ast.Name):
                pairs.append((node.optional_vars.id, node.context_expr))
    return pairs


def _derivations(
    fn: FunctionInfo,
) -> Tuple[Dict[str, Set[str]], Dict[str, Set[str]]]:
    """Compute (var -> param deps, param -> re-derivation deps).

    Parameters always map to themselves when *read*; the second table
    records what a parameter's in-function reassignment depends on —
    the information the K901 exemption rule consults.
    """
    params = set(fn.params)
    pairs = _assignment_pairs(fn)
    var_deps: Dict[str, Set[str]] = {}
    rederived: Dict[str, Set[str]] = {}
    for _ in range(_DERIVATION_PASSES):
        changed = False
        for target, value in pairs:
            deps = _expr_params(value, params, var_deps)
            if target in params:
                previous = rederived.get(target)
                merged = deps if previous is None else previous | deps
                if merged != previous:
                    rederived[target] = merged
                    changed = True
            else:
                previous = var_deps.get(target, set())
                merged = previous | deps
                if merged != previous:
                    var_deps[target] = merged
                    changed = True
        if not changed:
            break
    return var_deps, rederived


def _content_sinks(fn: FunctionInfo) -> List[Tuple[CallSite, List[ast.AST]]]:
    """(site, content argument expressions) for each sink in the body."""
    sinks: List[Tuple[CallSite, List[ast.AST]]] = []
    for site in fn.calls:
        terminal = site.terminal
        if terminal is None:
            continue
        if terminal in PAYLOAD_CALLABLES:
            if len(site.node.args) > _PAYLOAD_INDEX:
                sinks.append((site, [site.node.args[_PAYLOAD_INDEX]]))
        elif _JOB_TERMINAL_RE.search(terminal):
            exprs: List[ast.AST] = list(site.node.args)
            exprs.extend(kw.value for kw in site.node.keywords)
            if exprs:
                sinks.append((site, exprs))
    return sinks


def key_root_report(fn: FunctionInfo) -> Optional[KeyRootReport]:
    """The key/content parameter accounting for one function, if it is a
    key root (has both a cache-key call and at least one content sink)."""
    key_site: Optional[CallSite] = None
    for site in fn.calls:
        terminal = site.terminal
        if terminal is not None and terminal.endswith(KEY_TERMINAL_SUFFIX):
            key_site = site
            break
    if key_site is None:
        return None
    sinks = _content_sinks(fn)
    if not sinks:
        return None
    params = set(fn.params) - {"self"}
    var_deps, rederived = _derivations(fn)
    key_params: Set[str] = set()
    for expr in list(key_site.node.args) + [
        kw.value for kw in key_site.node.keywords
    ]:
        key_params.update(_expr_params(expr, params, var_deps))
    content_params: Set[str] = set()
    sink_meta: List[Tuple[str, int]] = []
    for site, exprs in sinks:
        contributed: Set[str] = set()
        for expr in exprs:
            contributed.update(_expr_params(expr, params, var_deps))
        content_params.update(contributed)
        sink_meta.append((site.terminal or "?", site.lineno))
    return KeyRootReport(
        fn=fn,
        key_site=key_site,
        key_params=key_params,
        content_params=content_params,
        rederived=rederived,
        sinks=sink_meta,
    )


def analyze_cache_keys(graph: CallGraph) -> List[Diagnostic]:
    """Run the K9xx analysis over a resolved call graph."""
    findings: List[Diagnostic] = []
    for name in sorted(graph.functions):
        fn = graph.functions[name]
        report = key_root_report(fn)
        if report is None:
            continue
        exempt = {
            param
            for param in report.content_params - report.key_params
            if param in report.rederived
            and report.rederived[param] <= report.key_params
        }
        missing = sorted(report.content_params - report.key_params - exempt)
        sink_text = ", ".join(
            f"`{terminal}` at line {lineno}"
            for terminal, lineno in report.sinks
        )
        for param in missing:
            findings.append(
                Diagnostic(
                    rule="K901",
                    severity=RULES["K901"].severity,
                    message=(
                        f"parameter `{param}` of `{fn.name}` influences "
                        f"dictionary content (reaches {sink_text}) but no "
                        "cache-key argument derives from it; two builds "
                        f"differing only in `{param}` collide on the same "
                        "key and the second is served stale bytes. Hash it "
                        "into the key or re-derive it from key-covered "
                        "parameters"
                    ),
                    path=fn.path,
                    line=report.key_site.lineno,
                    obj=fn.qualname,
                    engine="flow",
                )
            )
        # Over-keying: hashed parameters with no content influence.  A key
        # param backing an exempt re-derivation IS influencing content.
        backing: Set[str] = set()
        for param in exempt:
            backing.update(report.rederived[param])
        unused = sorted(
            report.key_params - report.content_params - backing
        )
        for param in unused:
            findings.append(
                Diagnostic(
                    rule="K902",
                    severity=RULES["K902"].severity,
                    message=(
                        f"parameter `{param}` of `{fn.name}` is hashed into "
                        "the cache key but never reaches dictionary content "
                        f"({sink_text}); over-keying splits the cache across "
                        "irrelevant values and hides hit-rate regressions"
                    ),
                    path=fn.path,
                    line=report.key_site.lineno,
                    obj=fn.qualname,
                    engine="flow",
                )
            )
    return findings
