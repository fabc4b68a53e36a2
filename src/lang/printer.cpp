#include "lang/printer.hpp"

#include <sstream>

#include "common/check.hpp"

namespace prog::lang {

namespace {

const char* binop_symbol(EKind k) {
  switch (k) {
    case EKind::kAdd: return " + ";
    case EKind::kSub: return " - ";
    case EKind::kMul: return " * ";
    case EKind::kDiv: return " / ";
    case EKind::kMod: return " % ";
    case EKind::kEq: return " == ";
    case EKind::kNe: return " != ";
    case EKind::kLt: return " < ";
    case EKind::kLe: return " <= ";
    case EKind::kGt: return " > ";
    case EKind::kGe: return " >= ";
    case EKind::kAnd: return " && ";
    case EKind::kOr: return " || ";
    default: return " ? ";
  }
}

class Printer {
 public:
  explicit Printer(const Proc& proc) : proc_(proc) {}

  void render_expr(ExprId id, std::ostringstream& os) const {
    const SExpr& e = proc_.expr(id);
    switch (e.kind) {
      case EKind::kConst:
        os << e.cval;
        return;
      case EKind::kParam:
        os << proc_.params[e.param].name;
        return;
      case EKind::kParamElem:
        os << proc_.params[e.param].name << '[';
        render_expr(e.a, os);
        os << ']';
        return;
      case EKind::kVar:
        os << var_name(e.var);
        return;
      case EKind::kField:
        os << var_name(e.var);
        if (e.field == kExistsField) {
          os << ".exists";
        } else {
          os << ".f" << e.field;
        }
        return;
      case EKind::kNot:
        os << "!(";
        render_expr(e.a, os);
        os << ')';
        return;
      case EKind::kMin:
      case EKind::kMax:
        os << (e.kind == EKind::kMin ? "min(" : "max(");
        render_expr(e.a, os);
        os << ", ";
        render_expr(e.b, os);
        os << ')';
        return;
      default:
        os << '(';
        render_expr(e.a, os);
        os << binop_symbol(e.kind);
        render_expr(e.b, os);
        os << ')';
        return;
    }
  }

  void render_block(const std::vector<Stmt>& block, int depth,
                    std::ostringstream& os) const {
    const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
    for (const Stmt& s : block) {
      os << pad;
      switch (s.kind) {
        case SKind::kAssign:
          os << var_name(s.var) << " = ";
          render_expr(s.a, os);
          os << '\n';
          break;
        case SKind::kGet:
          os << var_name(s.var) << " = GET(t" << s.table << ", ";
          render_expr(s.a, os);
          os << ")\n";
          break;
        case SKind::kPut: {
          os << "PUT(t" << s.table << ", ";
          render_expr(s.a, os);
          os << ", {";
          bool first = true;
          for (const auto& [f, eid] : s.fields) {
            if (!first) os << ", ";
            first = false;
            os << 'f' << f << ": ";
            render_expr(eid, os);
          }
          os << "})\n";
          break;
        }
        case SKind::kDel:
          os << "DEL(t" << s.table << ", ";
          render_expr(s.a, os);
          os << ")\n";
          break;
        case SKind::kIf:
          os << "if ";
          render_expr(s.a, os);
          os << " {\n";
          render_block(s.body, depth + 1, os);
          if (!s.else_body.empty()) {
            os << pad << "} else {\n";
            render_block(s.else_body, depth + 1, os);
          }
          os << pad << "}\n";
          break;
        case SKind::kFor:
          os << "for " << var_name(s.var) << " in [";
          render_expr(s.a, os);
          os << ", ";
          render_expr(s.b, os);
          os << ") max " << s.max_iters << " {\n";
          render_block(s.body, depth + 1, os);
          os << pad << "}\n";
          break;
        case SKind::kAbortIf:
          os << "abort_if ";
          render_expr(s.a, os);
          os << '\n';
          break;
        case SKind::kEmit:
          os << "emit ";
          render_expr(s.a, os);
          os << '\n';
          break;
      }
    }
  }

 private:
  std::string var_name(VarId v) const {
    if (v < proc_.var_names.size() && !proc_.var_names[v].empty()) {
      return proc_.var_names[v];
    }
    std::string name = "v";
    name += std::to_string(v);
    return name;
  }

  const Proc& proc_;
};

}  // namespace

std::string expr_to_string(const Proc& proc, ExprId id) {
  std::ostringstream os;
  Printer(proc).render_expr(id, os);
  return os.str();
}

std::string to_string(const Proc& proc) {
  std::ostringstream os;
  os << "proc " << proc.name << '(';
  bool first = true;
  for (const Param& p : proc.params) {
    if (!first) os << ", ";
    first = false;
    os << p.name;
    if (p.is_array) os << '[' << p.max_len << ']';
    os << " in [" << p.lo << ", " << p.hi << ']';
  }
  os << ") {\n";
  Printer(proc).render_block(proc.body, 1, os);
  os << "}\n";
  return os.str();
}

}  // namespace prog::lang
