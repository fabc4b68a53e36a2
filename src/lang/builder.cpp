#include "lang/builder.hpp"

#include "lang/bytecode/bytecode.hpp"

namespace prog::lang {

// --- Val operators ---------------------------------------------------------

Val Val::operator+(Val o) const { return b_->binary(EKind::kAdd, *this, o); }
Val Val::operator-(Val o) const { return b_->binary(EKind::kSub, *this, o); }
Val Val::operator*(Val o) const { return b_->binary(EKind::kMul, *this, o); }
Val Val::operator/(Val o) const { return b_->binary(EKind::kDiv, *this, o); }
Val Val::operator%(Val o) const { return b_->binary(EKind::kMod, *this, o); }
Val Val::operator==(Val o) const { return b_->binary(EKind::kEq, *this, o); }
Val Val::operator!=(Val o) const { return b_->binary(EKind::kNe, *this, o); }
Val Val::operator<(Val o) const { return b_->binary(EKind::kLt, *this, o); }
Val Val::operator<=(Val o) const { return b_->binary(EKind::kLe, *this, o); }
Val Val::operator>(Val o) const { return b_->binary(EKind::kGt, *this, o); }
Val Val::operator>=(Val o) const { return b_->binary(EKind::kGe, *this, o); }
Val Val::operator&&(Val o) const { return b_->binary(EKind::kAnd, *this, o); }
Val Val::operator||(Val o) const { return b_->binary(EKind::kOr, *this, o); }

Val Val::operator!() const {
  SExpr e;
  e.kind = EKind::kNot;
  e.a = id_;
  return Val(b_, b_->add_expr(e));
}

Val Val::operator+(Value c) const { return *this + b_->lit(c); }
Val Val::operator-(Value c) const { return *this - b_->lit(c); }
Val Val::operator*(Value c) const { return *this * b_->lit(c); }
Val Val::operator/(Value c) const { return *this / b_->lit(c); }
Val Val::operator%(Value c) const { return *this % b_->lit(c); }
Val Val::operator==(Value c) const { return *this == b_->lit(c); }
Val Val::operator!=(Value c) const { return *this != b_->lit(c); }
Val Val::operator<(Value c) const { return *this < b_->lit(c); }
Val Val::operator<=(Value c) const { return *this <= b_->lit(c); }
Val Val::operator>(Value c) const { return *this > b_->lit(c); }
Val Val::operator>=(Value c) const { return *this >= b_->lit(c); }

Val ArrParam::operator[](Val idx) const {
  SExpr e;
  e.kind = EKind::kParamElem;
  e.param = param_;
  e.a = idx.id();
  return Val(b_, b_->add_expr(e));
}

Val ArrParam::operator[](Value idx) const { return (*this)[b_->lit(idx)]; }

Val Handle::field(FieldId f) const {
  SExpr e;
  e.kind = EKind::kField;
  e.var = var_;
  e.field = f;
  return Val(b_, b_->add_expr(e));
}

Val Handle::exists() const { return field(kExistsField); }

// --- ProcBuilder -----------------------------------------------------------

ProcBuilder::ProcBuilder(std::string name) {
  proc_.name = std::move(name);
  blocks_.push_back(&proc_.body);
}

ExprId ProcBuilder::add_expr(SExpr e) {
  proc_.exprs.push_back(e);
  return static_cast<ExprId>(proc_.exprs.size() - 1);
}

Val ProcBuilder::binary(EKind k, Val a, Val b) {
  PROG_CHECK_MSG(a.builder() == this && b.builder() == this,
                 "mixing Vals from different builders");
  SExpr e;
  e.kind = k;
  e.a = a.id();
  e.b = b.id();
  return wrap(add_expr(e));
}

Val ProcBuilder::param(std::string name, Value lo, Value hi) {
  PROG_CHECK_MSG(lo <= hi, "parameter bounds must satisfy lo <= hi");
  PROG_CHECK_MSG(!built_, "builder already consumed");
  proc_.params.push_back({std::move(name), lo, hi, false, 0});
  SExpr e;
  e.kind = EKind::kParam;
  e.param = static_cast<std::uint32_t>(proc_.params.size() - 1);
  return wrap(add_expr(e));
}

ArrParam ProcBuilder::param_array(std::string name, std::uint32_t max_len,
                                  Value lo, Value hi) {
  PROG_CHECK_MSG(lo <= hi, "parameter bounds must satisfy lo <= hi");
  PROG_CHECK_MSG(max_len > 0, "array parameter needs max_len > 0");
  proc_.params.push_back({std::move(name), lo, hi, true, max_len});
  return ArrParam(this, static_cast<std::uint32_t>(proc_.params.size() - 1));
}

Val ProcBuilder::lit(Value v) {
  SExpr e;
  e.kind = EKind::kConst;
  e.cval = v;
  return wrap(add_expr(e));
}

Val ProcBuilder::field(Handle h, FieldId f) { return h.field(f); }
Val ProcBuilder::exists(Handle h) { return h.exists(); }

Val ProcBuilder::min(Val a, Val b) { return binary(EKind::kMin, a, b); }
Val ProcBuilder::max(Val a, Val b) { return binary(EKind::kMax, a, b); }

VarId ProcBuilder::new_var(std::string name, VarType type) {
  proc_.var_types.push_back(type);
  proc_.var_names.push_back(std::move(name));
  return static_cast<VarId>(proc_.var_types.size() - 1);
}

void ProcBuilder::push(Stmt s) {
  PROG_CHECK_MSG(!built_, "builder already consumed");
  blocks_.back()->push_back(std::move(s));
}

Val ProcBuilder::let(std::string name, Val e) {
  const VarId v = new_var(std::move(name), VarType::kScalar);
  Stmt s;
  s.kind = SKind::kAssign;
  s.var = v;
  s.a = e.id();
  push(std::move(s));
  SExpr ref;
  ref.kind = EKind::kVar;
  ref.var = v;
  return wrap(add_expr(ref));
}

void ProcBuilder::assign(Val var_ref, Val e) {
  const SExpr& ref = proc_.expr(var_ref.id());
  PROG_CHECK_MSG(ref.kind == EKind::kVar,
                 "assign target must be a variable created by let()");
  Stmt s;
  s.kind = SKind::kAssign;
  s.var = ref.var;
  s.a = e.id();
  push(std::move(s));
}

Handle ProcBuilder::get(TableId table, Val key) {
  std::string name = "h";
  name += std::to_string(proc_.var_types.size());
  const VarId v = new_var(std::move(name), VarType::kHandle);
  Stmt s;
  s.kind = SKind::kGet;
  s.var = v;
  s.table = table;
  s.a = key.id();
  push(std::move(s));
  return Handle(this, v);
}

void ProcBuilder::put(TableId table, Val key,
                      std::vector<std::pair<FieldId, Val>> fields) {
  Stmt s;
  s.kind = SKind::kPut;
  s.table = table;
  s.a = key.id();
  s.fields.reserve(fields.size());
  for (const auto& [f, v] : fields) s.fields.emplace_back(f, v.id());
  push(std::move(s));
}

void ProcBuilder::del(TableId table, Val key) {
  Stmt s;
  s.kind = SKind::kDel;
  s.table = table;
  s.a = key.id();
  push(std::move(s));
}

void ProcBuilder::abort_if(Val cond) {
  Stmt s;
  s.kind = SKind::kAbortIf;
  s.a = cond.id();
  push(std::move(s));
}

void ProcBuilder::emit(Val e) {
  Stmt s;
  s.kind = SKind::kEmit;
  s.a = e.id();
  push(std::move(s));
}

void ProcBuilder::if_(Val cond,
                      const std::function<void(ProcBuilder&)>& then_fn) {
  if_(cond, then_fn, [](ProcBuilder&) {});
}

void ProcBuilder::if_(Val cond,
                      const std::function<void(ProcBuilder&)>& then_fn,
                      const std::function<void(ProcBuilder&)>& else_fn) {
  Stmt s;
  s.kind = SKind::kIf;
  s.a = cond.id();
  push(std::move(s));
  Stmt& slot = blocks_.back()->back();
  blocks_.push_back(&slot.body);
  then_fn(*this);
  blocks_.pop_back();
  blocks_.push_back(&slot.else_body);
  else_fn(*this);
  blocks_.pop_back();
}

void ProcBuilder::for_(Val lo, Val hi, std::int64_t max_iters,
                       const std::function<void(ProcBuilder&, Val)>& body_fn) {
  PROG_CHECK_MSG(max_iters > 0, "for_ requires a positive static bound");
  std::string name = "i";
  name += std::to_string(proc_.var_types.size());
  const VarId v = new_var(std::move(name), VarType::kScalar);
  Stmt s;
  s.kind = SKind::kFor;
  s.var = v;
  s.a = lo.id();
  s.b = hi.id();
  s.max_iters = max_iters;
  push(std::move(s));
  Stmt& slot = blocks_.back()->back();
  SExpr ref;
  ref.kind = EKind::kVar;
  ref.var = v;
  const Val iv = wrap(add_expr(ref));
  blocks_.push_back(&slot.body);
  body_fn(*this, iv);
  blocks_.pop_back();
}

Proc ProcBuilder::build() && {
  PROG_CHECK_MSG(!built_, "builder already consumed");
  PROG_CHECK_MSG(blocks_.size() == 1, "unbalanced blocks at build()");
  built_ = true;
  // Compile to bytecode here so every construction path (workload templates,
  // Database::register_procedure, tests) executes through the VM; failure
  // degrades to tree-walking, never breaks registration.
  bytecode::ensure_compiled(proc_);
  return std::move(proc_);
}

}  // namespace prog::lang
