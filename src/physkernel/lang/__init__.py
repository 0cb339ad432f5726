"""Statement language: AST, parser, and canonical printer."""

from .. import _lazy_exports

# Each exported name, under the module that defines it; see physkernel.
_lazy_exports(globals(), {
    "nodes": "Add And Apply Cast ConstRef Deriv Div Eq Expr Fn FnDecl FnEq"
             " ForallFinite ForallFn Implies Le Lt Mul Ne Neg NumLit Or Pow"
             " PrefixApp Prop RPow SMul Span Statement StdUnit Sub UnitRef"
             " Val Var VarDecl Norm ast_eq walk",
    "parser": "parse_expression parse_prop parse_statement",
    "printer": "print_expr print_prop print_statement",
})
