#include "dsl/parser.h"

#include <unordered_map>

#include "model/ir.h"

namespace msv::dsl {
namespace {

using model::Annotation;
using model::ClassDecl;
using model::IrBuilder;
using rt::Value;

class Parser {
 public:
  explicit Parser(const std::string& source) : tokens_(tokenize(source)) {}

  model::AppModel parse_program() {
    model::AppModel app;
    while (!at(TokenKind::kEof)) {
      if (cur().is_identifier("class")) {
        parse_class(app);
      } else if (cur().is_identifier("main")) {
        next();
        app.set_main_class(expect_identifier("main class name"));
        expect_punct(";");
      } else {
        fail("expected 'class' or 'main'");
      }
    }
    app.validate();
    return app;
  }

 private:
  // ---- token helpers ----
  const Token& cur() const { return tokens_[pos_]; }
  // Safe lookahead: returns the trailing EOF token when out of range.
  const Token& peek(std::size_t ahead) const {
    const std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& next() { return tokens_[pos_++]; }
  bool at(TokenKind k) const { return cur().kind == k; }

  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError(msg + " (got '" + cur().text + "')", cur().line);
  }

  std::string expect_identifier(const char* what) {
    if (!at(TokenKind::kIdentifier)) fail(std::string("expected ") + what);
    return next().text;
  }

  void expect_punct(const char* p) {
    if (!cur().is_punct(p)) fail(std::string("expected '") + p + "'");
    next();
  }

  bool accept_punct(const char* p) {
    if (cur().is_punct(p)) {
      next();
      return true;
    }
    return false;
  }

  // Held by every recursive step (block, expression, prefix operator).
  class NestingGuard {
   public:
    explicit NestingGuard(Parser& p) : p_(p) {
      if (p_.depth_ == kMaxNesting) {
        p_.fail("nesting deeper than " + std::to_string(kMaxNesting));
      }
      ++p_.depth_;
    }
    ~NestingGuard() { --p_.depth_; }
    NestingGuard(const NestingGuard&) = delete;
    NestingGuard& operator=(const NestingGuard&) = delete;

   private:
    Parser& p_;
  };

  // ---- declarations ----
  void parse_class(model::AppModel& app) {
    next();  // 'class'
    const std::string name = expect_identifier("class name");
    Annotation annotation = Annotation::kNeutral;
    if (at(TokenKind::kAnnotation)) {
      const std::string a = next().text;
      if (a == "Trusted") {
        annotation = Annotation::kTrusted;
      } else if (a == "Untrusted") {
        annotation = Annotation::kUntrusted;
      } else if (a == "Neutral") {
        annotation = Annotation::kNeutral;
      } else {
        fail("unknown class annotation @" + a);
      }
    }
    ClassDecl& cls = app.add_class(name, annotation);
    expect_punct("{");
    while (!accept_punct("}")) {
      if (cur().is_identifier("field")) {
        next();
        cls.add_field(expect_identifier("field name"));
        expect_punct(";");
      } else if (cur().is_identifier("ctor")) {
        next();
        parse_method(cls, model::kConstructorName, /*is_static=*/false);
      } else if (cur().is_identifier("method") ||
                 cur().is_identifier("static")) {
        bool is_static = false;
        if (cur().is_identifier("static")) {
          is_static = true;
          next();
        }
        if (!cur().is_identifier("method")) fail("expected 'method'");
        next();
        const std::string method_name = expect_identifier("method name");
        parse_method(cls, method_name, is_static);
      } else {
        fail("expected 'field', 'ctor', 'method' or '}'");
      }
    }
  }

  void parse_method(ClassDecl& cls, const std::string& name, bool is_static) {
    locals_.clear();
    is_static_ = is_static;
    if (!is_static) locals_["this"] = 0;

    expect_punct("(");
    std::uint32_t params = 0;
    if (!cur().is_punct(")")) {
      while (true) {
        const std::string param = expect_identifier("parameter name");
        if (locals_.count(param) != 0) fail("duplicate parameter " + param);
        locals_[param] = static_cast<std::int32_t>(locals_.size());
        ++params;
        if (!accept_punct(",")) break;
      }
    }
    expect_punct(")");

    cls_ = &cls;
    ir_ = IrBuilder();
    parse_block();
    ir_.ret_void();  // implicit return at the end
    ir_.locals(static_cast<std::uint32_t>(locals_.size()));

    model::MethodDecl& m = cls.add_method(name, params);
    if (is_static) m.set_static();
    m.body(ir_.build());
  }

  // ---- statements ----
  void parse_block() {
    const NestingGuard guard(*this);
    expect_punct("{");
    while (!accept_punct("}")) parse_statement();
  }

  void parse_statement() {
    if (cur().is_identifier("return")) {
      next();
      if (accept_punct(";")) {
        ir_.ret_void();
      } else {
        parse_expr();
        expect_punct(";");
        ir_.ret();
      }
      return;
    }
    if (cur().is_identifier("if")) {
      next();
      expect_punct("(");
      parse_expr();
      expect_punct(")");
      const auto else_label = ir_.new_label();
      ir_.branch_false(else_label);
      parse_block();
      if (cur().is_identifier("else")) {
        next();
        const auto end_label = ir_.new_label();
        ir_.jump(end_label);
        ir_.bind(else_label);
        parse_block();
        ir_.bind(end_label);
      } else {
        ir_.bind(else_label);
      }
      return;
    }
    if (cur().is_identifier("while")) {
      next();
      const auto head = ir_.new_label();
      const auto end = ir_.new_label();
      ir_.bind(head);
      expect_punct("(");
      parse_expr();
      expect_punct(")");
      ir_.branch_false(end);
      parse_block();
      ir_.jump(head);
      ir_.bind(end);
      return;
    }
    // this.field = expr;
    if (cur().is_identifier("this") && peek(1).is_punct(".") &&
        peek(2).kind == TokenKind::kIdentifier && peek(3).is_punct("=")) {
      if (is_static_) fail("'this' in a static method");
      next();  // this
      next();  // .
      const std::string field = next().text;
      next();  // =
      ir_.load_local(0);
      parse_expr();
      ir_.put_field(field_index(field));
      expect_punct(";");
      return;
    }
    // local = expr;
    if (at(TokenKind::kIdentifier) && peek(1).is_punct("=")) {
      const std::string name = next().text;
      next();  // =
      parse_expr();
      const auto it = locals_.find(name);
      std::int32_t index;
      if (it != locals_.end()) {
        index = it->second;
      } else {
        index = static_cast<std::int32_t>(locals_.size());
        locals_[name] = index;
      }
      ir_.store_local(index);
      expect_punct(";");
      return;
    }
    // Expression statement.
    parse_expr();
    ir_.pop();
    expect_punct(";");
  }

  // ---- expressions ----
  void parse_expr() {
    const NestingGuard guard(*this);
    parse_comparison();
  }

  void parse_comparison() {
    parse_additive();
    while (cur().is_punct("<") || cur().is_punct("<=") ||
           cur().is_punct(">") || cur().is_punct(">=") ||
           cur().is_punct("==") || cur().is_punct("!=")) {
      const std::string op = next().text;
      if (op == ">" || op == ">=") {
        // a > b compiles as b < a: stash the rhs first via a temp local.
        const auto temp = static_cast<std::int32_t>(locals_.size());
        locals_["$tmp" + std::to_string(temp)] = temp;
        parse_additive();
        ir_.store_local(temp);   // rhs
        const auto temp2 = static_cast<std::int32_t>(locals_.size());
        locals_["$tmp" + std::to_string(temp2)] = temp2;
        ir_.store_local(temp2);  // lhs
        ir_.load_local(temp);
        ir_.load_local(temp2);
        if (op == ">") {
          ir_.lt();
        } else {
          ir_.le();
        }
      } else {
        parse_additive();
        if (op == "<") {
          ir_.lt();
        } else if (op == "<=") {
          ir_.le();
        } else if (op == "==") {
          ir_.eq();
        } else {  // !=
          ir_.eq();
          ir_.const_val(Value(false));
          ir_.eq();
        }
      }
    }
  }

  void parse_additive() {
    parse_multiplicative();
    while (cur().is_punct("+") || cur().is_punct("-")) {
      const bool add = next().text == "+";
      parse_multiplicative();
      if (add) {
        ir_.add();
      } else {
        ir_.sub();
      }
    }
  }

  void parse_multiplicative() {
    parse_unary();
    while (cur().is_punct("*") || cur().is_punct("/")) {
      const bool mul = next().text == "*";
      parse_unary();
      if (mul) {
        ir_.mul();
      } else {
        ir_.div();
      }
    }
  }

  void parse_unary() {
    if (cur().is_punct("-")) {
      next();
      const NestingGuard guard(*this);
      ir_.const_val(Value(std::int32_t{0}));
      parse_unary();
      ir_.sub();
      return;
    }
    if (cur().is_punct("!")) {
      next();
      const NestingGuard guard(*this);
      parse_unary();
      ir_.const_val(Value(false));
      ir_.eq();
      return;
    }
    parse_postfix();
  }

  void parse_postfix() {
    parse_primary();
    while (cur().is_punct(".")) {
      next();
      const std::string method = expect_identifier("method name");
      const std::int32_t argc = parse_args();
      ir_.call(method, argc);
    }
  }

  std::int32_t parse_args() {
    expect_punct("(");
    std::int32_t argc = 0;
    if (!cur().is_punct(")")) {
      while (true) {
        parse_expr();
        ++argc;
        if (!accept_punct(",")) break;
      }
    }
    expect_punct(")");
    return argc;
  }

  void parse_primary() {
    switch (cur().kind) {
      case TokenKind::kIntLiteral: {
        const std::int64_t v = next().int_value;
        if (v >= INT32_MIN && v <= INT32_MAX) {
          ir_.const_val(Value(static_cast<std::int32_t>(v)));
        } else {
          ir_.const_val(Value(v));
        }
        return;
      }
      case TokenKind::kFloatLiteral:
        ir_.const_val(Value(next().float_value));
        return;
      case TokenKind::kStringLiteral:
        ir_.const_val(Value(next().string_value));
        return;
      case TokenKind::kAnnotation: {
        // Intrinsic call: @name(args).
        const std::string name = next().text;
        const std::int32_t argc = parse_args();
        ir_.intrinsic(name, argc);
        return;
      }
      default:
        break;
    }
    if (accept_punct("(")) {
      parse_expr();
      expect_punct(")");
      return;
    }
    if (cur().is_identifier("new")) {
      next();
      const std::string cls = expect_identifier("class name");
      const std::int32_t argc = parse_args();
      ir_.new_object(cls, argc);
      return;
    }
    if (cur().is_identifier("true") || cur().is_identifier("false")) {
      ir_.const_val(Value(next().text == "true"));
      return;
    }
    if (cur().is_identifier("null")) {
      next();
      ir_.const_val(Value());
      return;
    }
    if (cur().is_identifier("this")) {
      if (is_static_) fail("'this' in a static method");
      next();
      if (cur().is_punct(".") && peek(1).kind == TokenKind::kIdentifier &&
          !peek(2).is_punct("(")) {
        // Field read: this.field (method calls are handled by postfix).
        next();
        const std::string field = next().text;
        ir_.load_local(0);
        ir_.get_field(field_index(field));
        return;
      }
      ir_.load_local(0);
      return;
    }
    if (at(TokenKind::kIdentifier)) {
      const std::string name = next().text;
      const auto it = locals_.find(name);
      if (it == locals_.end()) fail("unknown variable '" + name + "'");
      ir_.load_local(it->second);
      return;
    }
    fail("expected an expression");
  }

  std::int32_t field_index(const std::string& field) const {
    const std::int32_t index = cls_->field_index(field);
    if (index < 0) {
      throw ParseError("class " + cls_->name() + " has no field '" + field +
                           "' (fields must be declared before methods)",
                       cur().line);
    }
    return index;
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  ClassDecl* cls_ = nullptr;
  IrBuilder ir_;
  std::unordered_map<std::string, std::int32_t> locals_;
  bool is_static_ = false;
  int depth_ = 0;
};

}  // namespace

model::AppModel parse_program(const std::string& source) {
  return Parser(source).parse_program();
}

}  // namespace msv::dsl
