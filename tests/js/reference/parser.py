"""Recursive-descent parser for the ECMAScript subset.

Produces the AST in :mod:`repro.js.nodes`.  Operator precedence follows
JavaScript; semicolons are required except before ``}`` and EOF (a pragmatic
subset of automatic semicolon insertion sufficient for the scripts in the
synthetic web).
"""

from __future__ import annotations

from typing import List, Optional

from repro.js import nodes as N
from repro.js.errors import JSSyntaxError
from tests.js.reference.lexer import tokenize
from repro.js.tokens import Token, TokenType

__all__ = ["parse", "Parser"]

# Binary operator precedence (higher binds tighter).
_BINARY_PRECEDENCE = {
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "===": 6,
    "!==": 6,
    "<": 7,
    ">": 7,
    "<=": 7,
    ">=": 7,
    "instanceof": 7,
    "in": 7,
    "<<": 8,
    ">>": 8,
    ">>>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}

_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=")


def parse(source: str, script: str = "<anonymous>") -> N.Program:
    """Parse ``source`` into a :class:`~repro.js.nodes.Program`."""
    return Parser(tokenize(source, script), script).parse_program()


class Parser:
    def __init__(self, tokens: List[Token], script: str = "<anonymous>") -> None:
        self._tokens = tokens
        self._pos = 0
        self._script = script

    # -- token helpers ------------------------------------------------------------

    @property
    def _tok(self) -> Token:
        return self._tokens[self._pos]

    def _peek(self, offset: int = 1) -> Token:
        idx = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[idx]

    def _advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.type is not TokenType.EOF:
            self._pos += 1
        return tok

    def _error(self, message: str) -> JSSyntaxError:
        return JSSyntaxError(message, self._tok.line, self._script, col=self._tok.col)

    def _expect_punct(self, value: str) -> Token:
        if not self._tok.is_punct(value):
            raise self._error(f"expected {value!r}, found {self._tok.value!r}")
        return self._advance()

    def _expect_ident(self) -> str:
        if self._tok.type is not TokenType.IDENT:
            raise self._error(f"expected identifier, found {self._tok.value!r}")
        return self._advance().value  # type: ignore[return-value]

    def _eat_semicolon(self) -> None:
        if self._tok.is_punct(";"):
            self._advance()
            return
        # ASI subset: allow before } and at EOF.
        if self._tok.is_punct("}") or self._tok.type is TokenType.EOF:
            return
        raise self._error(f"expected ';', found {self._tok.value!r}")

    # -- program / statements ----------------------------------------------------

    def parse_program(self) -> N.Program:
        body: List[N.Node] = []
        while self._tok.type is not TokenType.EOF:
            body.append(self.parse_statement())
        return N.Program(line=1, col=1, body=body)

    def parse_statement(self) -> N.Node:
        tok = self._tok
        if tok.is_punct("{"):
            return self.parse_block()
        if tok.is_punct(";"):
            self._advance()
            return N.EmptyStatement(line=tok.line, col=tok.col)
        if tok.is_keyword("var", "let", "const"):
            decl = self.parse_variable_declaration()
            self._eat_semicolon()
            return decl
        if tok.is_keyword("function"):
            return self.parse_function_declaration()
        if tok.is_keyword("return"):
            self._advance()
            arg: Optional[N.Node] = None
            if not (self._tok.is_punct(";", "}") or self._tok.type is TokenType.EOF):
                arg = self.parse_expression()
            self._eat_semicolon()
            return N.ReturnStatement(line=tok.line, col=tok.col, argument=arg)
        if tok.is_keyword("if"):
            return self.parse_if()
        if tok.is_keyword("for"):
            return self.parse_for()
        if tok.is_keyword("while"):
            return self.parse_while()
        if tok.is_keyword("do"):
            return self.parse_do_while()
        if tok.is_keyword("break"):
            self._advance()
            self._eat_semicolon()
            return N.BreakStatement(line=tok.line, col=tok.col)
        if tok.is_keyword("continue"):
            self._advance()
            self._eat_semicolon()
            return N.ContinueStatement(line=tok.line, col=tok.col)
        if tok.is_keyword("throw"):
            self._advance()
            arg = self.parse_expression()
            self._eat_semicolon()
            return N.ThrowStatement(line=tok.line, col=tok.col, argument=arg)
        if tok.is_keyword("try"):
            return self.parse_try()
        if tok.is_keyword("switch"):
            return self.parse_switch()
        expr = self.parse_expression()
        self._eat_semicolon()
        return N.ExpressionStatement(line=tok.line, col=tok.col, expression=expr)

    def parse_block(self) -> N.Block:
        start = self._expect_punct("{")
        body: List[N.Node] = []
        while not self._tok.is_punct("}"):
            if self._tok.type is TokenType.EOF:
                raise self._error("unterminated block")
            body.append(self.parse_statement())
        self._expect_punct("}")
        return N.Block(line=start.line, col=start.col, body=body)

    def parse_variable_declaration(self) -> N.VariableDeclaration:
        kind_tok = self._advance()
        declarations: List[N.VariableDeclarator] = []
        while True:
            line = self._tok.line
            col = self._tok.col
            name = self._expect_ident()
            init: Optional[N.Node] = None
            if self._tok.is_punct("="):
                self._advance()
                init = self.parse_assignment()
            declarations.append(N.VariableDeclarator(line=line, col=col, name=name, init=init))
            if self._tok.is_punct(","):
                self._advance()
                continue
            break
        return N.VariableDeclaration(line=kind_tok.line, col=kind_tok.col, kind=kind_tok.value, declarations=declarations)

    def parse_function_declaration(self) -> N.FunctionDeclaration:
        start = self._advance()  # 'function'
        name = self._expect_ident()
        params = self._parse_params()
        body = self.parse_block()
        return N.FunctionDeclaration(line=start.line, col=start.col, name=name, params=params, body=body)

    def _parse_params(self) -> List[str]:
        self._expect_punct("(")
        params: List[str] = []
        while not self._tok.is_punct(")"):
            params.append(self._expect_ident())
            if self._tok.is_punct(","):
                self._advance()
        self._expect_punct(")")
        return params

    def parse_if(self) -> N.IfStatement:
        start = self._advance()
        self._expect_punct("(")
        test = self.parse_expression()
        self._expect_punct(")")
        consequent = self.parse_statement()
        alternate: Optional[N.Node] = None
        if self._tok.is_keyword("else"):
            self._advance()
            alternate = self.parse_statement()
        return N.IfStatement(line=start.line, col=start.col, test=test, consequent=consequent, alternate=alternate)

    def parse_for(self) -> N.Node:
        start = self._advance()
        self._expect_punct("(")

        # for (var x of expr) / for (x of expr)
        if (
            self._tok.is_keyword("var", "let", "const")
            and self._peek().type is TokenType.IDENT
            and self._peek(2).is_keyword("of")
        ):
            kind = self._advance().value
            name = self._expect_ident()
            self._advance()  # 'of'
            iterable = self.parse_expression()
            self._expect_punct(")")
            body = self.parse_statement()
            return N.ForOfStatement(line=start.line, col=start.col, kind=kind, name=name, iterable=iterable, body=body)

        init: Optional[N.Node] = None
        if not self._tok.is_punct(";"):
            if self._tok.is_keyword("var", "let", "const"):
                init = self.parse_variable_declaration()
            else:
                init = N.ExpressionStatement(line=self._tok.line, col=self._tok.col, expression=self.parse_expression())
        self._expect_punct(";")
        test: Optional[N.Node] = None
        if not self._tok.is_punct(";"):
            test = self.parse_expression()
        self._expect_punct(";")
        update: Optional[N.Node] = None
        if not self._tok.is_punct(")"):
            update = self.parse_expression()
        self._expect_punct(")")
        body = self.parse_statement()
        return N.ForStatement(line=start.line, col=start.col, init=init, test=test, update=update, body=body)

    def parse_while(self) -> N.WhileStatement:
        start = self._advance()
        self._expect_punct("(")
        test = self.parse_expression()
        self._expect_punct(")")
        body = self.parse_statement()
        return N.WhileStatement(line=start.line, col=start.col, test=test, body=body)

    def parse_do_while(self) -> N.DoWhileStatement:
        start = self._advance()
        body = self.parse_statement()
        if not self._tok.is_keyword("while"):
            raise self._error("expected 'while' after do-block")
        self._advance()
        self._expect_punct("(")
        test = self.parse_expression()
        self._expect_punct(")")
        self._eat_semicolon()
        return N.DoWhileStatement(line=start.line, col=start.col, body=body, test=test)

    def parse_try(self) -> N.TryStatement:
        start = self._advance()
        block = self.parse_block()
        param: Optional[str] = None
        handler: Optional[N.Block] = None
        finalizer: Optional[N.Block] = None
        if self._tok.is_keyword("catch"):
            self._advance()
            if self._tok.is_punct("("):
                self._advance()
                param = self._expect_ident()
                self._expect_punct(")")
            handler = self.parse_block()
        if self._tok.is_keyword("finally"):
            self._advance()
            finalizer = self.parse_block()
        if handler is None and finalizer is None:
            raise self._error("try without catch or finally")
        return N.TryStatement(line=start.line, col=start.col, block=block, param=param, handler=handler, finalizer=finalizer)

    def parse_switch(self) -> N.SwitchStatement:
        start = self._advance()  # 'switch'
        self._expect_punct("(")
        discriminant = self.parse_expression()
        self._expect_punct(")")
        self._expect_punct("{")
        cases: List[N.SwitchCase] = []
        seen_default = False
        while not self._tok.is_punct("}"):
            tok = self._tok
            if tok.is_keyword("case"):
                self._advance()
                test = self.parse_expression()
            elif tok.is_keyword("default"):
                if seen_default:
                    raise self._error("multiple default clauses in switch")
                seen_default = True
                self._advance()
                test = None
            else:
                raise self._error(f"expected 'case' or 'default', found {tok.value!r}")
            self._expect_punct(":")
            body: List[N.Node] = []
            while not (
                self._tok.is_punct("}")
                or self._tok.is_keyword("case")
                or self._tok.is_keyword("default")
            ):
                if self._tok.type is TokenType.EOF:
                    raise self._error("unterminated switch")
                body.append(self.parse_statement())
            cases.append(N.SwitchCase(line=tok.line, col=tok.col, test=test, body=body))
        self._expect_punct("}")
        return N.SwitchStatement(line=start.line, col=start.col, discriminant=discriminant, cases=cases)

    # -- expressions -------------------------------------------------------------

    def parse_expression(self) -> N.Node:
        expr = self.parse_assignment()
        if self._tok.is_punct(","):
            exprs = [expr]
            while self._tok.is_punct(","):
                self._advance()
                exprs.append(self.parse_assignment())
            return N.SequenceExpression(line=expr.line, col=expr.col, expressions=exprs)
        return expr

    def parse_assignment(self) -> N.Node:
        # Arrow functions: ident => ..., (a, b) => ...
        arrow = self._try_parse_arrow()
        if arrow is not None:
            return arrow

        left = self.parse_conditional()
        if self._tok.type is TokenType.PUNCT and self._tok.value in _ASSIGN_OPS:
            op_tok = self._advance()
            if not isinstance(left, (N.Identifier, N.MemberExpression)):
                raise self._error("invalid assignment target")
            value = self.parse_assignment()
            return N.AssignmentExpression(line=op_tok.line, col=op_tok.col, op=op_tok.value, target=left, value=value)
        return left

    def _try_parse_arrow(self) -> Optional[N.FunctionExpression]:
        tok = self._tok
        # ident =>
        if tok.type is TokenType.IDENT and self._peek().is_punct("=>"):
            self._advance()
            self._advance()
            return self._finish_arrow([tok.value], tok.line, tok.col)
        # ( params ) =>   — requires lookahead to the matching paren.
        if tok.is_punct("("):
            depth = 0
            idx = self._pos
            while idx < len(self._tokens):
                t = self._tokens[idx]
                if t.is_punct("("):
                    depth += 1
                elif t.is_punct(")"):
                    depth -= 1
                    if depth == 0:
                        break
                elif t.type is TokenType.EOF:
                    return None
                idx += 1
            closing = idx
            if closing + 1 < len(self._tokens) and self._tokens[closing + 1].is_punct("=>"):
                # Simple parameter list only (identifiers and commas).
                params: List[str] = []
                for t in self._tokens[self._pos + 1 : closing]:
                    if t.type is TokenType.IDENT:
                        params.append(t.value)
                    elif t.is_punct(","):
                        continue
                    else:
                        return None
                self._pos = closing + 2  # skip past ')' and '=>'
                return self._finish_arrow(params, tok.line, tok.col)
        return None

    def _finish_arrow(self, params: List[str], line: int, col: int = 0) -> N.FunctionExpression:
        if self._tok.is_punct("{"):
            body = self.parse_block()
        else:
            expr = self.parse_assignment()
            body = N.Block(line=line, col=col, body=[N.ReturnStatement(line=line, col=col, argument=expr)])
        return N.FunctionExpression(line=line, col=col, params=params, body=body, is_arrow=True)

    def parse_conditional(self) -> N.Node:
        test = self.parse_logical_or()
        if self._tok.is_punct("?"):
            q = self._advance()
            consequent = self.parse_assignment()
            self._expect_punct(":")
            alternate = self.parse_assignment()
            return N.ConditionalExpression(
                line=q.line, col=q.col, test=test, consequent=consequent, alternate=alternate
            )
        return test

    def parse_logical_or(self) -> N.Node:
        left = self.parse_logical_and()
        while self._tok.is_punct("||"):
            tok = self._advance()
            right = self.parse_logical_and()
            left = N.LogicalOp(line=tok.line, col=tok.col, op="||", left=left, right=right)
        return left

    def parse_logical_and(self) -> N.Node:
        left = self.parse_binary(0)
        while self._tok.is_punct("&&"):
            tok = self._advance()
            right = self.parse_binary(0)
            left = N.LogicalOp(line=tok.line, col=tok.col, op="&&", left=left, right=right)
        return left

    def parse_binary(self, min_prec: int) -> N.Node:
        left = self.parse_unary()
        while True:
            tok = self._tok
            op = tok.value if tok.type in (TokenType.PUNCT, TokenType.KEYWORD) else None
            prec = _BINARY_PRECEDENCE.get(op) if isinstance(op, str) else None
            if prec is None or prec < min_prec:
                return left
            self._advance()
            right = self.parse_binary(prec + 1)
            left = N.BinaryOp(line=tok.line, col=tok.col, op=op, left=left, right=right)

    def parse_unary(self) -> N.Node:
        tok = self._tok
        if tok.is_punct("!", "-", "+", "~"):
            self._advance()
            return N.UnaryOp(line=tok.line, col=tok.col, op=tok.value, operand=self.parse_unary())
        if tok.is_keyword("typeof", "delete"):
            self._advance()
            return N.UnaryOp(line=tok.line, col=tok.col, op=tok.value, operand=self.parse_unary())
        if tok.is_punct("++", "--"):
            self._advance()
            target = self.parse_unary()
            return N.UpdateExpression(line=tok.line, col=tok.col, op=tok.value, target=target, prefix=True)
        return self.parse_postfix()

    def parse_postfix(self) -> N.Node:
        expr = self.parse_call_member()
        tok = self._tok
        if tok.is_punct("++", "--"):
            self._advance()
            return N.UpdateExpression(line=tok.line, col=tok.col, op=tok.value, target=expr, prefix=False)
        return expr

    def parse_call_member(self) -> N.Node:
        if self._tok.is_keyword("new"):
            new_tok = self._advance()
            callee = self.parse_call_member_base()
            args: List[N.Node] = []
            if self._tok.is_punct("("):
                args = self._parse_args()
            expr: N.Node = N.NewExpression(line=new_tok.line, col=new_tok.col, callee=callee, args=args)
        else:
            expr = self.parse_primary()
        while True:
            tok = self._tok
            if tok.is_punct("."):
                self._advance()
                if self._tok.type not in (TokenType.IDENT, TokenType.KEYWORD):
                    raise self._error("expected property name after '.'")
                prop = self._advance().value
                expr = N.MemberExpression(line=tok.line, col=tok.col, obj=expr, prop=prop, computed=False)
            elif tok.is_punct("["):
                self._advance()
                prop_expr = self.parse_expression()
                self._expect_punct("]")
                expr = N.MemberExpression(line=tok.line, col=tok.col, obj=expr, prop=prop_expr, computed=True)
            elif tok.is_punct("("):
                args = self._parse_args()
                expr = N.CallExpression(line=tok.line, col=tok.col, callee=expr, args=args)
            else:
                return expr

    def parse_call_member_base(self) -> N.Node:
        """Callee of ``new``: primary with member accesses but no calls."""
        expr = self.parse_primary()
        while self._tok.is_punct("."):
            tok = self._advance()
            prop = self._advance().value
            expr = N.MemberExpression(line=tok.line, col=tok.col, obj=expr, prop=prop, computed=False)
        return expr

    def _parse_args(self) -> List[N.Node]:
        self._expect_punct("(")
        args: List[N.Node] = []
        while not self._tok.is_punct(")"):
            args.append(self.parse_assignment())
            if self._tok.is_punct(","):
                self._advance()
        self._expect_punct(")")
        return args

    def parse_primary(self) -> N.Node:
        tok = self._tok
        if tok.type is TokenType.NUMBER:
            self._advance()
            return N.NumberLiteral(line=tok.line, col=tok.col, value=tok.value)
        if tok.type is TokenType.STRING:
            self._advance()
            return N.StringLiteral(line=tok.line, col=tok.col, value=tok.value)
        if tok.is_keyword("true", "false"):
            self._advance()
            return N.BooleanLiteral(line=tok.line, col=tok.col, value=tok.value == "true")
        if tok.is_keyword("null"):
            self._advance()
            return N.NullLiteral(line=tok.line, col=tok.col)
        if tok.is_keyword("undefined"):
            self._advance()
            return N.UndefinedLiteral(line=tok.line, col=tok.col)
        if tok.is_keyword("this"):
            self._advance()
            return N.ThisExpression(line=tok.line, col=tok.col)
        if tok.is_keyword("function"):
            self._advance()
            name: Optional[str] = None
            if self._tok.type is TokenType.IDENT:
                name = self._advance().value
            params = self._parse_params()
            body = self.parse_block()
            return N.FunctionExpression(line=tok.line, col=tok.col, params=params, body=body, name=name)
        if tok.type is TokenType.IDENT:
            self._advance()
            return N.Identifier(line=tok.line, col=tok.col, name=tok.value)
        if tok.is_punct("("):
            self._advance()
            expr = self.parse_expression()
            self._expect_punct(")")
            return expr
        if tok.is_punct("["):
            self._advance()
            elements: List[N.Node] = []
            while not self._tok.is_punct("]"):
                elements.append(self.parse_assignment())
                if self._tok.is_punct(","):
                    self._advance()
            self._expect_punct("]")
            return N.ArrayLiteral(line=tok.line, col=tok.col, elements=elements)
        if tok.is_punct("{"):
            return self.parse_object_literal()
        raise self._error(f"unexpected token {tok.value!r}")

    def parse_object_literal(self) -> N.ObjectLiteral:
        start = self._expect_punct("{")
        props: List = []
        while not self._tok.is_punct("}"):
            key_tok = self._tok
            if key_tok.type in (TokenType.IDENT, TokenType.KEYWORD):
                key = str(key_tok.value)
                self._advance()
            elif key_tok.type is TokenType.STRING:
                key = key_tok.value
                self._advance()
            elif key_tok.type is TokenType.NUMBER:
                key = _number_key(key_tok.value)
                self._advance()
            else:
                raise self._error(f"bad object key {key_tok.value!r}")
            self._expect_punct(":")
            value = self.parse_assignment()
            props.append((key, value))
            if self._tok.is_punct(","):
                self._advance()
        self._expect_punct("}")
        return N.ObjectLiteral(line=start.line, col=start.col, properties=props)


def _number_key(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)
