// Parser + bytecode compiler for the Montsalvat source language.
//
// Produces the model::AppModel the rest of the toolchain consumes — the
// same artifact the paper obtains from annotated Java classes. Grammar
// (see lexer.h for an example program):
//
//   program  := (class | "main" IDENT ";")*
//   class    := "class" IDENT annotation? "{" member* "}"
//   annotation := "@Trusted" | "@Untrusted" | "@Neutral"
//   member   := "field" IDENT ";"
//             | "ctor" "(" params ")" block
//             | "static"? "method" IDENT "(" params ")" block
//   stmt     := "return" expr? ";"
//             | "if" "(" expr ")" block ("else" block)?
//             | "while" "(" expr ")" block
//             | "this" "." IDENT "=" expr ";"
//             | IDENT "=" expr ";"
//             | expr ";"
//   expr     := comparison; operators: * / + - < <= > >= == !=,
//               unary - and !, calls expr.m(args), "new" C(args),
//               intrinsics @name(args), literals, this, locals, ( expr )
//
// Fields must be declared before the methods that use them. Every parse
// or compile problem throws ParseError with the line number.
//
// Nesting is bounded: blocks, expressions (each parenthesised expression
// and call argument opens one) and prefix operators together may nest at
// most kMaxNesting deep. Deeper input is a ParseError, never a stack
// overflow. The compiler emits code as it parses, so this one bound
// covers the whole compile.
#pragma once

#include <string>

#include "dsl/lexer.h"
#include "model/app_model.h"

namespace msv::dsl {

inline constexpr int kMaxNesting = 256;

// Parses and compiles a whole program.
model::AppModel parse_program(const std::string& source);

}  // namespace msv::dsl
