"""Per-function control-flow graphs over the parsed ES-subset AST.

The builder lowers one function body (or the top-level program) into basic
blocks of consecutive statements connected by explicit edges, then computes
graph reachability from the entry block.  Downstream passes only ever ask
two questions, so the public surface is small:

* ``FunctionCFG.is_live(stmt)`` — can this statement execute on *some* path
  from function entry?  Code after an unconditional ``return``/``throw``
  (or a ``break``/``continue``) is dead, and dead code must not contribute
  to a script's API profile, effect sets, or step bound.
* ``FunctionCFG.has_loops`` / ``loop_statements`` — does any back edge
  exist, and through which loop statements?  The skippability proof refuses
  to prove termination for anything but literally-bounded loops.

Structured control flow only (the parser has no ``goto`` and no labels), so
the builder is a recursive descent over statement lists carrying a stack of
``(break_target, continue_target)`` pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.js import nodes as N

__all__ = ["BasicBlock", "FunctionCFG", "build_cfg"]


@dataclass
class BasicBlock:
    """A run of statements with a single entry and explicit successor edges."""

    index: int
    statements: List[N.Node] = field(default_factory=list)
    successors: List[int] = field(default_factory=list)

    def add_edge(self, target: int) -> None:
        if target not in self.successors:
            self.successors.append(target)


class FunctionCFG:
    """The control-flow graph of one function body."""

    def __init__(self) -> None:
        self.blocks: List[BasicBlock] = []
        #: id(stmt) for every statement on some path from entry.
        self.live: Set[int] = set()
        #: Loop statements (For/ForOf/While/DoWhile) that are themselves live.
        self.loop_statements: List[N.Node] = []

    # -- construction ----------------------------------------------------------

    def new_block(self) -> BasicBlock:
        block = BasicBlock(index=len(self.blocks))
        self.blocks.append(block)
        return block

    # -- queries ---------------------------------------------------------------

    @property
    def has_loops(self) -> bool:
        return bool(self.loop_statements)

    def is_live(self, stmt: N.Node) -> bool:
        return id(stmt) in self.live

    def live_statements(self) -> List[N.Node]:
        out: List[N.Node] = []
        for block in self.blocks:
            for stmt in block.statements:
                if id(stmt) in self.live:
                    out.append(stmt)
        return out


class _Builder:
    """Recursive-descent lowering of statement lists into ``FunctionCFG``."""

    def __init__(self) -> None:
        self.cfg = FunctionCFG()
        self.exit = self.cfg.new_block()  # block 0: the function exit
        #: (break_target_index, continue_target_index) innermost-last.
        self.loop_stack: List[Tuple[int, Optional[int]]] = []

    def build(self, body: List[N.Node]) -> FunctionCFG:
        entry = self.cfg.new_block()
        last = self.lower_list(body, entry)
        if last is not None:
            last.add_edge(self.exit.index)
        self._mark_reachable(entry.index)
        return self.cfg

    # Each lower_* takes the current block and returns the block control
    # falls through to afterwards, or None when the path terminated
    # (return/throw/break/continue): subsequent statements start a fresh,
    # *unconnected* block, which reachability then classifies as dead.

    def lower_list(self, stmts: List[N.Node], current: BasicBlock) -> Optional[BasicBlock]:
        for stmt in stmts:
            if current is None:
                # Dead continuation: give trailing statements their own
                # disconnected block so they exist in the graph (and are
                # provably dead) rather than silently vanishing.
                current = self.cfg.new_block()
            current = self.lower_stmt(stmt, current)
        return current

    def lower_stmt(self, stmt: N.Node, current: BasicBlock) -> Optional[BasicBlock]:
        current.statements.append(stmt)

        if isinstance(stmt, (N.ReturnStatement, N.ThrowStatement)):
            current.add_edge(self.exit.index)
            return None

        if isinstance(stmt, N.BreakStatement):
            if self.loop_stack:
                current.add_edge(self.loop_stack[-1][0])
            else:  # stray break: treat as function exit, stays conservative
                current.add_edge(self.exit.index)
            return None

        if isinstance(stmt, N.ContinueStatement):
            if self.loop_stack and self.loop_stack[-1][1] is not None:
                current.add_edge(self.loop_stack[-1][1])
            else:
                current.add_edge(self.exit.index)
            return None

        if isinstance(stmt, N.Block):
            return self.lower_list(stmt.body, current)

        if isinstance(stmt, N.IfStatement):
            after = self.cfg.new_block()
            then_block = self.cfg.new_block()
            current.add_edge(then_block.index)
            then_end = self.lower_stmt(stmt.consequent, then_block)
            if then_end is not None:
                then_end.add_edge(after.index)
            if stmt.alternate is not None:
                else_block = self.cfg.new_block()
                current.add_edge(else_block.index)
                else_end = self.lower_stmt(stmt.alternate, else_block)
                if else_end is not None:
                    else_end.add_edge(after.index)
            else:
                current.add_edge(after.index)
            return after

        if isinstance(stmt, (N.WhileStatement, N.ForStatement, N.ForOfStatement)):
            self.cfg.loop_statements.append(stmt)
            head = self.cfg.new_block()
            body = self.cfg.new_block()
            after = self.cfg.new_block()
            current.add_edge(head.index)
            head.add_edge(body.index)
            head.add_edge(after.index)  # zero-iteration path (or loop exit)
            self.loop_stack.append((after.index, head.index))
            body_end = self.lower_stmt(stmt.body, body) if stmt.body is not None else body
            self.loop_stack.pop()
            if body_end is not None:
                body_end.add_edge(head.index)  # the back edge
            return after

        if isinstance(stmt, N.DoWhileStatement):
            self.cfg.loop_statements.append(stmt)
            body = self.cfg.new_block()
            after = self.cfg.new_block()
            current.add_edge(body.index)  # do-while runs the body at least once
            self.loop_stack.append((after.index, body.index))
            body_end = self.lower_stmt(stmt.body, body) if stmt.body is not None else body
            self.loop_stack.pop()
            if body_end is not None:
                body_end.add_edge(body.index)
                body_end.add_edge(after.index)
            return after

        if isinstance(stmt, N.SwitchStatement):
            after = self.cfg.new_block()
            self.loop_stack.append((after.index, None))
            previous_end: Optional[BasicBlock] = None
            saw_default = False
            for case in stmt.cases:
                case_block = self.cfg.new_block()
                current.add_edge(case_block.index)
                saw_default = saw_default or case.test is None
                if previous_end is not None:  # fall-through from prior case
                    previous_end.add_edge(case_block.index)
                previous_end = self.lower_list(case.body, case_block)
            self.loop_stack.pop()
            if previous_end is not None:
                previous_end.add_edge(after.index)
            if not saw_default:
                current.add_edge(after.index)  # no case matched
            return after

        if isinstance(stmt, N.TryStatement):
            after = self.cfg.new_block()
            try_block = self.cfg.new_block()
            current.add_edge(try_block.index)
            try_end = self.lower_list(stmt.block.body if stmt.block else [], try_block)
            if try_end is not None:
                try_end.add_edge(after.index)
            if stmt.handler is not None:
                handler_block = self.cfg.new_block()
                # Any statement in the try may throw: the handler is
                # reachable from the try head, conservatively.
                try_block.add_edge(handler_block.index)
                handler_end = self.lower_list(stmt.handler.body, handler_block)
                if handler_end is not None:
                    handler_end.add_edge(after.index)
            if stmt.finalizer is not None:
                final_block = self.cfg.new_block()
                after.add_edge(final_block.index)
                final_end = self.lower_list(stmt.finalizer.body, final_block)
                after = self.cfg.new_block()
                if final_end is not None:
                    final_end.add_edge(after.index)
            return after

        # Plain statements (expressions, declarations, empty): fall through.
        return current

    def _mark_reachable(self, entry_index: int) -> None:
        seen: Set[int] = set()
        stack = [entry_index]
        while stack:
            index = stack.pop()
            if index in seen:
                continue
            seen.add(index)
            block = self.cfg.blocks[index]
            for stmt in block.statements:
                self.cfg.live.add(id(stmt))
            stack.extend(block.successors)
        # A loop statement only counts if its header was reachable.
        self.cfg.loop_statements = [
            loop for loop in self.cfg.loop_statements if id(loop) in self.cfg.live
        ]


def build_cfg(body: List[N.Node]) -> FunctionCFG:
    """Build the CFG of one function body (a list of statements)."""
    return _Builder().build(body)
