// Tests for src/dsl: the lexer, the parser/compiler, and programs written
// in the Montsalvat source language running through the full pipeline.
#include <gtest/gtest.h>

#include "core/montsalvat.h"
#include "dsl/lexer.h"
#include "dsl/parser.h"

namespace msv::dsl {
namespace {

using rt::Value;

// ---- Lexer -----------------------------------------------------------------

TEST(Lexer, TokenKinds) {
  const auto tokens = tokenize("class Foo @Trusted { x = 1 + 2.5; }");
  ASSERT_GE(tokens.size(), 10u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[0].text, "class");
  EXPECT_EQ(tokens[2].kind, TokenKind::kAnnotation);
  EXPECT_EQ(tokens[2].text, "Trusted");
  EXPECT_TRUE(tokens[3].is_punct("{"));
  EXPECT_EQ(tokens[6].kind, TokenKind::kIntLiteral);
  EXPECT_EQ(tokens[6].int_value, 1);
  EXPECT_EQ(tokens[8].kind, TokenKind::kFloatLiteral);
  EXPECT_DOUBLE_EQ(tokens[8].float_value, 2.5);
  EXPECT_EQ(tokens.back().kind, TokenKind::kEof);
}

TEST(Lexer, StringsWithEscapes) {
  const auto tokens = tokenize(R"("line\n\"quoted\"")");
  EXPECT_EQ(tokens[0].kind, TokenKind::kStringLiteral);
  EXPECT_EQ(tokens[0].string_value, "line\n\"quoted\"");
}

TEST(Lexer, CommentsSkippedAndLinesCounted) {
  const auto tokens = tokenize("// comment\nfoo\n// more\nbar");
  EXPECT_EQ(tokens[0].text, "foo");
  EXPECT_EQ(tokens[0].line, 2);
  EXPECT_EQ(tokens[1].text, "bar");
  EXPECT_EQ(tokens[1].line, 4);
}

TEST(Lexer, TwoCharOperators) {
  const auto tokens = tokenize("a == b <= c != d >= e");
  EXPECT_TRUE(tokens[1].is_punct("=="));
  EXPECT_TRUE(tokens[3].is_punct("<="));
  EXPECT_TRUE(tokens[5].is_punct("!="));
  EXPECT_TRUE(tokens[7].is_punct(">="));
}

TEST(Lexer, ErrorsCarryLineNumbers) {
  try {
    tokenize("ok\n\"unterminated");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
  EXPECT_THROW(tokenize("what is #this"), ParseError);
  EXPECT_THROW(tokenize("@ lonely"), ParseError);
}

// ---- Parser / compiler -----------------------------------------------------

rt::Value run_main_native(const std::string& source) {
  core::NativeApp app(parse_program(source));
  return app.run_main();
}

TEST(Parser, ArithmeticAndControlFlow) {
  // Compute 10! iteratively and return it from main.
  const char* source = R"(
    class Main {
      static method main() {
        acc = 1;
        i = 1;
        while (i <= 10) {
          acc = acc * i;
          i = i + 1;
        }
        return acc;
      }
    }
    main Main;
  )";
  EXPECT_EQ(run_main_native(source).as_i32(), 3628800);
}

TEST(Parser, IfElseAndComparisons) {
  const char* source = R"(
    class Main {
      static method main() {
        a = 7;
        b = 3;
        if (a > b) { r = "gt"; } else { r = "le"; }
        if (a != 7) { r = "broken"; }
        if (!(a < b)) { r = @str_concat(r, "!"); }
        return r;
      }
    }
    main Main;
  )";
  EXPECT_EQ(run_main_native(source).as_string(), "gt!");
}

TEST(Parser, ObjectsFieldsAndMethodChaining) {
  const char* source = R"(
    class Counter {
      field n;
      ctor(start) { this.n = start; }
      method bump() { this.n = this.n + 1; return this; }
      method get() { return this.n; }
    }
    class Main {
      static method main() {
        c = new Counter(40);
        return c.bump().bump().get();
      }
    }
    main Main;
  )";
  EXPECT_EQ(run_main_native(source).as_i32(), 42);
}

TEST(Parser, UnaryMinusAndPrecedence) {
  const char* source = R"(
    class Main {
      static method main() { return -3 + 2 * 5; }
    }
    main Main;
  )";
  EXPECT_EQ(run_main_native(source).as_i32(), 7);
}

TEST(Parser, SyntaxErrorsReported) {
  EXPECT_THROW(parse_program("class {"), ParseError);
  EXPECT_THROW(parse_program("class C @Bogus {}"), ParseError);
  EXPECT_THROW(parse_program("class C { junk }"), ParseError);
  EXPECT_THROW(parse_program("class C { method m() { x = ; } }"), ParseError);
  EXPECT_THROW(parse_program("main;"), ParseError);
}

TEST(Parser, CompileErrorsReported) {
  // Unknown variable.
  EXPECT_THROW(parse_program(R"(
    class Main { static method main() { return ghost; } }
    main Main;
  )"),
               ParseError);
  // Unknown field.
  EXPECT_THROW(parse_program(R"(
    class C { method m() { this.nope = 1; } }
    class Main { static method main() { } }
    main Main;
  )"),
               ParseError);
  // `this` in a static method.
  EXPECT_THROW(parse_program(R"(
    class Main { static method main() { return this; } }
    main Main;
  )"),
               ParseError);
}

TEST(Parser, ValidationStillApplies) {
  // The compiled model goes through the same validation: a @Trusted main
  // class is rejected (§5.3).
  EXPECT_THROW(parse_program(R"(
    class Main @Trusted { static method main() { } }
    main Main;
  )"),
               Error);
}

TEST(Parser, AnnotatedProgramRunsPartitioned) {
  const char* source = R"(
    class Secret @Trusted {
      field value;
      ctor(v) { this.value = v; }
      method reveal(token) {
        if (token == 42) { return this.value; }
        return "denied";
      }
    }
    class Main @Untrusted {
      static method main() {
        s = new Secret("the-key");
        @print(s.reveal(41));
      }
    }
    main Main;
  )";
  core::PartitionedApp app(parse_program(source));
  app.run_main();
  auto& u = app.untrusted_context();
  const Value s = u.construct("Secret", {Value("classified")});
  EXPECT_EQ(u.invoke(s.as_ref(), "reveal", {Value(std::int32_t{41})})
                .as_string(),
            "denied");
  EXPECT_EQ(u.invoke(s.as_ref(), "reveal", {Value(std::int32_t{42})})
                .as_string(),
            "classified");
  EXPECT_GT(app.bridge().stats().ecalls, 0u);
}

TEST(Parser, GreaterThanSwapsOperandsCorrectly) {
  const char* source = R"(
    class Main {
      static method main() {
        a = 0;
        if (5 > 2) { a = a + 1; }
        if (2 > 5) { a = a + 10; }
        if (5 >= 5) { a = a + 100; }
        if (4 >= 5) { a = a + 1000; }
        return a;
      }
    }
    main Main;
  )";
  EXPECT_EQ(run_main_native(source).as_i32(), 101);
}

// main's body block is nesting level 1 and its return expression level 2,
// so `parens` nested (1 + (...)) groups reach depth 2 + parens.
std::string nested_sum_program(int parens) {
  std::string expr = "1";
  for (int i = 0; i < parens; ++i) expr = "1 + (" + expr + ")";
  return "class Main { static method main() { return " + expr +
         "; } }\nmain Main;\n";
}

TEST(Parser, DeepNestingRejectedWithTypedError) {
  // Each of these used to recurse once per level until the stack ran out.
  const std::string parens = "class Main { static method main() { return " +
                             std::string(20000, '(') + "1" +
                             std::string(20000, ')') + "; } }\nmain Main;\n";
  const std::string prefix = "class Main { static method main() { return " +
                             std::string(20000, '-') + "1; } }\nmain Main;\n";
  std::string blocks = "class Main { static method main() { ";
  for (int i = 0; i < 20000; ++i) blocks += "if (true) { ";
  blocks += "x = 1;";
  for (int i = 0; i < 20000; ++i) blocks += " }";
  blocks += " return 0; } }\nmain Main;\n";
  for (const std::string& source : {parens, prefix, blocks}) {
    try {
      parse_program(source);
      ADD_FAILURE() << "deep input compiled";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("nesting deeper than"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Parser, NestingAtTheLimitStillCompiles) {
  const int at_limit = kMaxNesting - 2;
  EXPECT_EQ(run_main_native(nested_sum_program(at_limit)).as_i32(),
            at_limit + 1);
  EXPECT_THROW(parse_program(nested_sum_program(at_limit + 1)), ParseError);
}

}  // namespace
}  // namespace msv::dsl
