#include "analysis/error_bounds.hpp"

#include <cmath>

#include "numrep/fixed_point.hpp"
#include "numrep/iebw.hpp"
#include "numrep/posit.hpp"
#include "numrep/quantize.hpp"
#include "numrep/registry.hpp"
#include "numrep/soft_float.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "vra/interval.hpp"

namespace luis::analysis {

using ir::Instruction;
using ir::Opcode;
using ir::ScalarType;
using numrep::ConcreteType;
using vra::Interval;

namespace {

constexpr double kInf = ErrorMap::kUnbounded;

/// Fixpoint sweep cap. A run that exhausts it reports every join target
/// (arrays, loop phis) as unbounded rather than trusting a truncated
/// iteration.
constexpr int kMaxPasses = 200;
/// Sweeps before trip-count widening engages on growing join targets.
constexpr int kWidenAfter = 8;
/// Multiplicative inflation applied to every computed bound, absorbing
/// the analysis's own rounding.
constexpr double kInflate = 1.0 + 0x1p-20;
/// Widening multiplies the observed per-iteration increment by this
/// headroom before extrapolating over the trip count.
constexpr double kWidenHeadroom = 2.0;
/// Trip-count products beyond this are treated as unbounded.
constexpr double kMaxTripProduct = 1e18;

/// Slack multipliers, in units of binary64 half-ulps at the result
/// magnitude, for the interpreter's compute-in-double step. Add/sub/mul/
/// div and IEEE sqrt are correctly rounded (one half-ulp); fmod and
/// min/max selection are exact; exp/pow are only faithfully rounded by
/// libm, so they get generous headroom.
constexpr double kExactUlps = 0.0;
constexpr double kRoundedUlps = 1.0;
constexpr double kLibmUlps = 8.0;

double sanitize(double e) { return std::isnan(e) ? kInf : e; }

} // namespace

double quantization_bound(const ConcreteType& type, double max_magnitude) {
  if (std::isnan(max_magnitude) || !std::isfinite(max_magnitude)) return kInf;
  const double m = std::abs(max_magnitude);
  const numrep::NumericFormat& f = type.format;
  const numrep::FormatClassOps& ops = numrep::format_ops(type);
  const double rep = ops.max_value(type);
  // Past a non-saturating format's largest finite value the rounder
  // overflows to infinity: no finite bound exists. Saturating formats
  // (fixed point, posits, the FiniteOnly/Fnuz FP8 encodings) clamp
  // instead and are charged the saturation distance below.
  if (!ops.saturates(f) && m > rep) return kInf;
  const int iebw = numrep::iebw_of_range(f, -m, m, type.frac_bits);
  // IEBW's Definition-1 eps is the smallest representation-changing
  // perturbation: for floats 2^-IEBW is already the half-ulp (the maximum
  // round-to-nearest error), while for fixed point, posits and
  // fixed-posits it is the lattice step, of which rounding incurs at most
  // half.
  double bound = std::ldexp(1.0, -iebw);
  if (!ops.eps_is_half_step(f)) bound *= 0.5;
  // The (1 - 2^-50) factor keeps the representable maximum a true lower
  // bound under this function's own rounding.
  if (ops.saturates(f)) bound += std::max(0.0, m - rep * (1.0 - 0x1p-50));
  // Unsigned fixed point saturates negative values at zero; without the
  // sign of the data only the full magnitude is a safe allowance.
  if (f.is_fixed() && !f.is_signed()) bound += m;
  // Never-underflow representations (posits, fixed-posits): a nonzero
  // value below minpos rounds *up* to +-minpos, so near zero the worst
  // error is the full minpos, not half the local step.
  if (ops.never_underflows(f) && m > 0.0)
    bound = std::max(bound, ops.min_positive(type));
  return bound;
}

double representation_cap(const ConcreteType& type,
                          const vra::Interval& range) {
  return numrep::format_ops(type).max_value(type) + range.max_magnitude();
}

double ErrorAnalysisResult::relative(const ir::Value* value,
                                     const vra::RangeMap& ranges) const {
  const double abs = errors.of(value);
  if (abs == 0.0) return 0.0;
  const double scale = ranges.of(value).max_magnitude();
  if (!(scale > 0.0) || !std::isfinite(scale)) return abs;
  return abs / scale;
}

namespace {

/// The rounding-error domain: err(v) bounds |quantized(v) - exact(v)| over
/// every execution whose inputs respect the VRA ranges. See the header for
/// the model and docs/ANALYSIS.md for the soundness argument.
class ErrorDomain {
public:
  using Value = double;
  using Reader = ForwardDataflow<ErrorDomain>::Reader;

  ErrorDomain(const ir::Function& f, const interp::TypeAssignment& assignment,
              const vra::RangeMap& ranges)
      : f_(f), types_(assignment), ranges_(ranges) {
    precompute();
  }

  bool divergent() const { return divergent_; }
  long capped() const { return capped_; }
  bool assumes_finite_run() const { return float_capped_; }

  void seed(std::map<const ir::Value*, double>& state) {
    // Array contents are quantized into the array's representation when
    // the run binds its buffers, so inputs start with that rounding. Both
    // executions bind the same data, so control divergence does not touch
    // the seeds — it is charged at the stores that may differ.
    for (const auto& arr : f_.arrays()) {
      const Interval r = ranges_.of(arr.get());
      double e = kInf;
      if (trusted(r))
        e = inflate(quantization_bound(types_.of(arr.get()), r.max_magnitude()));
      state.emplace(arr.get(), e);
    }
  }

  std::optional<double> constant(const ir::Value* v) const {
    // Literals are exact; their materialization into a format is charged
    // at the consuming (aligning) read.
    return v->is_constant() ? std::optional<double>(0.0) : std::nullopt;
  }

  double join(double a, double b) const { return std::max(a, b); }
  bool equal(double a, double b) const { return a == b; }

  /// Trip-count widening for accumulation through arrays and loop-carried
  /// phis. The error of a loop-carried accumulator often has no finite
  /// inductive invariant (every store adds a fresh increment, possibly
  /// amplified by the loop body), so the sound bound is extrapolated from
  /// the concrete execution count instead:
  ///
  ///   * Observation (the first kObservePasses widening sweeps): growing
  ///     joins pass through unchanged while the domain records each
  ///     target's per-pass increment and its pass-over-pass increment
  ///     ratio r. For a monotone affine error system E' = A E + B the
  ///     increments obey d' = A d, so a component's increment ratio tracks
  ///     the loop gain it sits in (Collatz-Wielandt: A^k d <= r^k d when
  ///     A d <= r d).
  ///   * First extrapolation — additive budget: one concrete run fires
  ///     this target's joins at most N times (execution_bound), and an
  ///     additive accumulator grows by at most the observed increment per
  ///     firing, so `grown + increment * N` (with headroom) covers the
  ///     run. Chained accumulators and contractive stencils settle inside
  ///     this allowance once their upstream bounds stop moving.
  ///   * Second extrapolation — amplified budget: growth that outruns the
  ///     additive allowance is loop-gain amplified, so the remaining
  ///     firings are charged `increment * N * r^N` (sum_{k<=N} r^k d <=
  ///     N r^N d). Outgrowing that too saturates at the representation
  ///     cap.
  double widen(const ir::Value* target, double old_e, double grown, int pass) {
    if (!std::isfinite(grown)) return capped(kInf, target);
    WidenState& st = widen_[target];
    const double delta = grown - old_e;
    if (st.widened && delta <= st.allowance) return old_e;

    // Another target's extrapolation jump is still propagating: pass the
    // growth through untouched. In a contractive coupled system (stencil
    // ping-pong) the partners settle below the extrapolated bound during
    // the wash-through and never need their own extrapolation.
    if (last_extrap_pass_ >= 0 && target != last_extrap_target_ &&
        pass - last_extrap_pass_ <= kPollutionWindow)
      return capped(grown, target);

    // Per-pass natural increments; the latest consecutive-pass ratio is
    // the gain estimate (transient ratios of polynomially growing chains
    // decay toward 1, so the latest reading dominates stale ones).
    if (st.last_pass == pass) {
      st.pass_delta += delta;
    } else {
      st.prev_delta = st.last_pass == pass - 1 ? st.pass_delta : 0.0;
      st.pass_delta = delta;
      st.last_pass = pass;
      if (st.prev_delta > 0.0 && st.pass_delta > 0.0)
        st.ratio = st.pass_delta / st.prev_delta;
    }
    if (pass < kWidenAfter + kObservePasses) return capped(grown, target);

    if (st.extrapolations >= kMaxExtrapolations) return capped(kInf, target);
    const double n = execution_bound(target);
    if (!std::isfinite(n)) return capped(kInf, target);
    ++st.extrapolations;
    st.widened = true;
    last_extrap_pass_ = pass;
    last_extrap_target_ = target;
    const double d = std::max(st.pass_delta, delta) * kWidenHeadroom;
    double tail = d * n;
    if (st.ratio < 1.0) {
      // Contracting increments (stencil-style feedback with gain < 1): the
      // remaining growth is a decaying geometric series; extrapolate its
      // sum, halving the gap to 1 as cushion against ratio misreads. The
      // sum is valid for any number of firings, so it also rides out the
      // cross-jumps of mutually coupled arrays.
      const double rc = 0.5 * (1.0 + st.ratio);
      tail = std::max(tail, d * rc / (1.0 - rc));
    } else if (st.extrapolations > 1) {
      const double r = st.ratio * (1.0 + 0x1p-10);
      const double ln_tail = std::log(n) + n * std::log(r);
      tail = ln_tail > 700.0 ? kInf : tail * std::exp(n * std::log(r));
    }
    st.allowance = tail;
    return capped(sanitize(inflate(grown + tail)), target);
  }

  void transfer(const Instruction* inst, const Reader& read,
                Effects<double>& fx) {
    if (inst->opcode() == Opcode::Store) {
      transfer_store(inst, read, fx);
      return;
    }
    if (inst->type() != ScalarType::Real) return;

    bool poisoned = false;
    // Raw operand error: the value as stored in its own representation
    // (how mul/div/rem/pow and the unary ops read their operands).
    const auto raw_err = [&](const ir::Value* v) -> double {
      if (v->type() != ScalarType::Real) return 0.0; // ints/bools are exact
      const std::optional<double> e = read(v);
      if (!e) {
        poisoned = true;
        return 0.0;
      }
      return sanitize(*e);
    };
    // Aligning operand error: the value numerically converted into `to`
    // (add/sub/min/max operands, select arms, casts, stores, phis).
    // Constants materialize directly in `to`, exactly measurable.
    const auto aligned_err = [&](const ir::Value* v,
                                 const ConcreteType& to) -> double {
      if (v->kind() == ir::Value::Kind::ConstReal) {
        const double c = static_cast<const ir::ConstReal*>(v)->value();
        return sanitize(std::abs(numrep::quantize(to, c) - c));
      }
      const double e = raw_err(v);
      if (poisoned || !std::isfinite(e)) return e;
      const Interval r = ranges_.of(v);
      if (!trusted(r)) return kInf;
      if (types_.of(v) == to) return e;
      return e + quantization_bound(to, r.max_magnitude() + e);
    };

    const ConcreteType ty = types_.of(inst);
    const Interval result_range = ranges_.of(inst);

    // Finish an operate-then-round instruction: `prop` bounds the
    // deviation reaching the binary64 compute step, whose result lies in
    // `range` ⊕ prop; charge the double rounding and the quantization into
    // the result format at that magnitude.
    const auto emit_in = [&](const Interval& range, double prop, double ulps) {
      if (poisoned) {
        fx.poison();
        return;
      }
      if (!trusted(range) || !std::isfinite(prop)) {
        fx.assign(inst, kInf);
        return;
      }
      const double m = range.max_magnitude() + prop;
      fx.assign(inst, sanitize(inflate(prop + half64(m) * ulps +
                                       quantization_bound(ty, m))));
    };
    const auto emit = [&](double prop, double ulps) {
      emit_in(result_range, prop, ulps);
    };
    // Finish an instruction whose result is only converted (no binary64
    // compute step): casts, loads, stable selects, phis.
    const auto emit_converted = [&](double e) {
      if (poisoned) fx.poison();
      else fx.assign(inst, sanitize(inflate(e)));
    };

    switch (inst->opcode()) {
    case Opcode::Add:
    case Opcode::Sub:
      emit(aligned_err(inst->operand(0), ty) + aligned_err(inst->operand(1), ty),
           kRoundedUlps);
      break;
    case Opcode::Min:
    case Opcode::Max:
      // fmin/fmax select one aligned operand exactly.
      emit(std::max(aligned_err(inst->operand(0), ty),
                    aligned_err(inst->operand(1), ty)),
           kExactUlps);
      break;
    case Opcode::Mul: {
      const double ea = raw_err(inst->operand(0));
      const double eb = raw_err(inst->operand(1));
      const Interval a = ranges_.of(inst->operand(0));
      const Interval b = ranges_.of(inst->operand(1));
      if (!trusted(a) || !trusted(b)) {
        emit(kInf, kRoundedUlps);
        break;
      }
      // |a'b' - ab| <= |a'||b'-b| + |b||a'-a|.
      emit((a.max_magnitude() + ea) * eb + b.max_magnitude() * ea, kRoundedUlps);
      break;
    }
    case Opcode::Div: {
      const double ea = raw_err(inst->operand(0));
      const double eb = raw_err(inst->operand(1));
      const Interval a = ranges_.of(inst->operand(0));
      const Interval b = ranges_.of(inst->operand(1));
      if (!trusted(a) || !trusted(b) || !std::isfinite(ea) ||
          !std::isfinite(eb)) {
        emit(kInf, kRoundedUlps);
        break;
      }
      // The perturbed divisor must stay away from zero, or the quantized
      // run can divide by (nearly) nothing the exact run never sees.
      const double min_b = min_magnitude(b) - eb;
      if (!(min_b > 0.0)) {
        emit(kInf, kRoundedUlps);
        break;
      }
      // |a'/b' - a/b| <= |a'-a|/|b'| + |a||b-b'|/(|b||b'|).
      emit(ea / min_b + a.max_magnitude() * eb / (min_b * min_b), kRoundedUlps);
      break;
    }
    case Opcode::Rem: {
      const double ea = raw_err(inst->operand(0));
      const double eb = raw_err(inst->operand(1));
      if (!std::isfinite(ea) || !std::isfinite(eb)) {
        emit(kInf, kExactUlps);
        break;
      }
      const Interval a = ranges_.of(inst->operand(0));
      const Interval b = ranges_.of(inst->operand(1));
      if (!trusted(a) || !trusted(b)) {
        emit(kInf, kExactUlps);
        break;
      }
      // No usable sensitivity (fmod is discontinuous in the divisor):
      // both runs land in the hull over the perturbed operands. fmod
      // itself is exact in binary64.
      const Interval h = vra::iv_rem(expand(a, ea), expand(b, eb));
      emit_in(h, h.width(), kExactUlps);
      break;
    }
    case Opcode::Neg:
    case Opcode::Abs:
      // Exact in binary64; only the result quantization rounds.
      emit(raw_err(inst->operand(0)), kExactUlps);
      break;
    case Opcode::Sqrt: {
      const double ea = raw_err(inst->operand(0));
      const Interval a = ranges_.of(inst->operand(0));
      if (!trusted(a) || !std::isfinite(ea)) {
        emit(kInf, kRoundedUlps);
        break;
      }
      const double lo = a.lo - ea;
      if (lo < 0.0) {
        // The quantized (or exact) operand may go negative: NaN, no bound.
        emit(kInf, kRoundedUlps);
        break;
      }
      // |sqrt(x) - sqrt(y)| <= |x-y| / (2 sqrt(min)) and <= sqrt(|x-y|).
      const double prop = lo > 0.0
                              ? std::min(std::sqrt(ea), ea / (2.0 * std::sqrt(lo)))
                              : std::sqrt(ea);
      emit(prop, kRoundedUlps);
      break;
    }
    case Opcode::Exp: {
      const double ea = raw_err(inst->operand(0));
      const Interval a = ranges_.of(inst->operand(0));
      if (!trusted(a) || !std::isfinite(ea)) {
        emit(kInf, kLibmUlps);
        break;
      }
      // Mean value bound: |e^x - e^y| <= e^max(x,y) |x-y|.
      emit(std::exp(a.hi + ea) * ea, kLibmUlps);
      break;
    }
    case Opcode::Pow: {
      const double ea = raw_err(inst->operand(0));
      const double eb = raw_err(inst->operand(1));
      const Interval a = ranges_.of(inst->operand(0));
      const Interval b = ranges_.of(inst->operand(1));
      if (!trusted(a) || !trusted(b) || !std::isfinite(ea) ||
          !std::isfinite(eb)) {
        emit(kInf, kLibmUlps);
        break;
      }
      const ir::Value* exp_op = inst->operand(1);
      if (exp_op->kind() == ir::Value::Kind::ConstReal) {
        // Constant exponents are read raw and used exactly.
        const double c = static_cast<const ir::ConstReal*>(exp_op)->value();
        if (c == std::floor(c) && c >= 0.0) {
          if (c == 0.0) {
            emit(0.0, kLibmUlps); // x^0 == 1 in both runs
            break;
          }
          // d/dx x^n bound: n * max|x|^(n-1) over the perturbed base.
          const double m = a.max_magnitude() + ea;
          emit(c * std::pow(m, c - 1.0) * ea, kLibmUlps);
          break;
        }
      }
      // General case: hull width over the perturbed operands.
      const Interval h =
          vra::iv_pow(expand(a, ea), expand(b, eb), ranges_.top_magnitude());
      if (!trusted(h)) {
        emit(kInf, kLibmUlps);
        break;
      }
      emit_in(h, h.width(), kLibmUlps);
      break;
    }
    case Opcode::Cast:
      // The conversion is the aligning read; no second rounding.
      emit_converted(aligned_err(inst->operand(0), ty));
      break;
    case Opcode::IntToReal: {
      if (divergent_) {
        // The integer operand itself may differ between the two runs.
        emit_converted(kInf);
        break;
      }
      const Interval a = ranges_.of(inst->operand(0));
      emit_converted(trusted(a)
                         ? quantization_bound(ty, a.max_magnitude())
                         : kInf);
      break;
    }
    case Opcode::Load: {
      const ir::Value* arr = inst->operand(0);
      const double e = raw_err(arr);
      if (poisoned || !std::isfinite(e)) {
        emit_converted(e);
        break;
      }
      if (types_.of(arr) == ty) {
        emit_converted(e);
        break;
      }
      const Interval r = ranges_.of(arr);
      emit_converted(trusted(r)
                         ? e + quantization_bound(ty, r.max_magnitude() + e)
                         : kInf);
      break;
    }
    case Opcode::Select: {
      const double e1 = aligned_err(inst->operand(1), ty);
      const double e2 = aligned_err(inst->operand(2), ty);
      if (poisoned) {
        fx.poison();
        break;
      }
      if (comparison_stable(inst->operand(0), read)) {
        // Both runs pick the same (aligned) arm.
        emit_converted(std::max(e1, e2));
        break;
      }
      // The runs may pick different arms: hull width over both.
      const Interval r1 = ranges_.of(inst->operand(1));
      const Interval r2 = ranges_.of(inst->operand(2));
      if (!trusted(r1) || !trusted(r2)) {
        emit_converted(kInf);
        break;
      }
      emit_converted(vra::iv_join(r1, r2).width() + std::max(e1, e2));
      break;
    }
    case Opcode::Phi: {
      // Both runs arrive over the same edge (real-valued control
      // divergence collapses memory bounds globally instead), so the
      // error is the worst incoming one, plus each edge's conversion into
      // the phi's format. Bottom incoming edges (the back edge on the
      // first sweep) do not contribute yet.
      std::optional<double> acc;
      for (std::size_t i = 0; i < inst->num_operands(); ++i) {
        const ir::Value* in = inst->operand(i);
        double e;
        if (in->kind() == ir::Value::Kind::ConstReal) {
          const double c = static_cast<const ir::ConstReal*>(in)->value();
          e = sanitize(std::abs(numrep::quantize(ty, c) - c));
        } else {
          const std::optional<double> ein = read(in);
          if (!ein) continue;
          e = sanitize(*ein);
          if (std::isfinite(e) && !(types_.of(in) == ty)) {
            const Interval r = ranges_.of(in);
            e = trusted(r)
                    ? e + quantization_bound(ty, r.max_magnitude() + e)
                    : kInf;
          }
        }
        acc = acc ? std::max(*acc, e) : e;
      }
      if (acc) fx.join(inst, sanitize(inflate(*acc)));
      break;
    }
    default:
      break;
    }
  }

private:
  /// Widening sweeps that only observe increments before extrapolating.
  static constexpr int kObservePasses = 3;
  /// Extrapolations per target before saturating at the cap.
  static constexpr int kMaxExtrapolations = 2;
  /// Passes after another target extrapolates during which widening only
  /// passes growth through: the extrapolation jump washes through coupled
  /// arrays as giant one-off deltas that would corrupt their increment and
  /// ratio estimates (and compound the jump if extrapolated from).
  static constexpr int kPollutionWindow = 3;

  struct WidenState {
    int last_pass = -1;
    double pass_delta = 0.0; ///< summed growth seen on last_pass
    double prev_delta = 0.0; ///< summed growth on the pass before it
    double ratio = 1.0;      ///< latest consecutive-pass increment ratio
    int extrapolations = 0;
    bool widened = false;
    double allowance = 0.0;
  };

  double inflate(double e) const { return e * kInflate; }

  /// Saturate an array bound at its representation cap: no matter what the
  /// quantized run computes, a stored cell holds a representable value, so
  /// its distance to the in-range reference cell is at most the format's
  /// largest representable magnitude plus the range magnitude. Saturating
  /// representations (fixed point, posits, fixed-posits, the FP8
  /// FiniteOnly/Fnuz encodings) make the cap unconditional; Ieee float
  /// formats overflow to infinity instead, so their cap certifies only
  /// finite quantized runs (reported via assumes_finite_run).
  double capped(double e, const ir::Value* target) {
    const auto it = caps_.find(target);
    if (it == caps_.end() || e <= it->second) return e;
    ++capped_;
    const ConcreteType t = types_.of(target);
    if (!numrep::format_ops(t).saturates(t.format)) float_capped_ = true;
    return it->second;
  }
  double cap_of(const ir::Value* target) const {
    const auto it = caps_.find(target);
    return it != caps_.end() ? it->second : kInf;
  }

  /// Ranges at the VRA clamp magnitude mean "don't know": the clamp cuts
  /// genuinely larger values, so nothing derived from them can be trusted.
  bool trusted(const Interval& r) const {
    return r.max_magnitude() < ranges_.top_magnitude();
  }

  static double min_magnitude(const Interval& r) {
    if (r.contains_zero()) return 0.0;
    return std::min(std::abs(r.lo), std::abs(r.hi));
  }

  static Interval expand(const Interval& r, double e) {
    return {r.lo - e, r.hi + e};
  }

  static double half64(double m) {
    if (!std::isfinite(m)) return kInf;
    // For float formats 2^-IEBW is the half-ulp itself (Definition 1's
    // smallest representation-changing perturbation).
    const int iebw =
        numrep::iebw_of_range(numrep::kBinary64, -std::abs(m), std::abs(m));
    return std::ldexp(1.0, -iebw);
  }

  /// True when both runs provably evaluate `cond` to the same outcome.
  /// Integer comparisons are exact; real comparisons are stable when the
  /// perturbed operand intervals cannot overlap.
  bool comparison_stable(const ir::Value* cond, const Reader& read) const {
    if (!cond->is_instruction()) return false;
    const auto* ci = static_cast<const Instruction*>(cond);
    if (ci->opcode() == Opcode::ICmp) return !divergent_;
    if (ci->opcode() != Opcode::FCmp) return false;
    const auto err = [&](const ir::Value* v) {
      if (v->is_constant()) return 0.0;
      const std::optional<double> e = read(v);
      return e ? sanitize(*e) : kInf;
    };
    const double ex = err(ci->operand(0));
    const double ey = err(ci->operand(1));
    if (!std::isfinite(ex) || !std::isfinite(ey)) return false;
    const Interval x = expand(ranges_.of(ci->operand(0)), ex);
    const Interval y = expand(ranges_.of(ci->operand(1)), ey);
    return x.hi < y.lo || y.hi < x.lo;
  }

  void transfer_store(const Instruction* inst, const Reader& read,
                      Effects<double>& fx) {
    const ir::Value* arr = inst->operand(1);
    if (divergent_) {
      // The two runs may execute different stores entirely; the cell still
      // holds a representable value against an in-range reference.
      fx.join(arr, capped(kInf, arr));
      return;
    }
    const ir::Value* value = inst->operand(0);
    const ConcreteType at = types_.of(arr);
    double e;
    if (value->kind() == ir::Value::Kind::ConstReal) {
      const double c = static_cast<const ir::ConstReal*>(value)->value();
      e = sanitize(std::abs(numrep::quantize(at, c) - c));
    } else {
      const std::optional<double> ev = read(value);
      if (!ev) {
        fx.poison();
        return;
      }
      e = sanitize(*ev);
      if (std::isfinite(e) && !(types_.of(value) == at)) {
        const Interval r = ranges_.of(value);
        e = trusted(r) ? e + quantization_bound(at, r.max_magnitude() + e)
                       : kInf;
      }
    }
    fx.join(arr, capped(sanitize(inflate(e)), arr));
  }

  // --- Trip counts and execution bounds (for widening) ---

  void precompute() {
    // Real-valued comparisons steering control flow or integer data make
    // the two executions diverge; see the header.
    for (const auto& bb : f_.blocks()) {
      for (const auto& inst : bb->instructions()) {
        const bool selects_int = inst->opcode() == Opcode::Select &&
                                 inst->type() == ScalarType::Int;
        if (inst->opcode() != Opcode::CondBr && !selects_int) continue;
        const ir::Value* cond = inst->operand(0);
        if (cond->is_instruction() &&
            static_cast<const Instruction*>(cond)->opcode() == Opcode::FCmp)
          divergent_ = true;
      }
    }

    loops_ = LoopInfo::compute(f_);
    loop_trips_.assign(loops_.loops.size(), kInf);
    for (std::size_t li = 0; li < loops_.loops.size(); ++li)
      loop_trips_[li] = trip_bound(loops_.loops[li]);

    for (const auto& bb : f_.blocks())
      for (const auto& inst : bb->instructions())
        if (inst->opcode() == Opcode::Store)
          store_bounds_[inst->operand(1)] += block_bound(bb.get());

    // Representation caps (see capped()); only arrays with trusted
    // reference ranges have one — an untrusted range bounds nothing.
    for (const auto& arr : f_.arrays()) {
      const Interval r = ranges_.of(arr.get());
      if (!trusted(r)) continue;
      const double cap = representation_cap(types_.of(arr.get()), r);
      if (std::isfinite(cap)) caps_[arr.get()] = cap;
    }
  }

  /// Iteration bound of a natural loop, from its integer induction phis: a
  /// header phi whose in-loop incoming values all step it by a constant in
  /// one direction. Two bounding arguments, best wins:
  ///   * a guarding comparison against a constant on an exit branch caps
  ///     the phi while the loop keeps running (the canonical lowered-loop
  ///     shape: `%i = phi ...; icmp lt %i, N; condbr`);
  ///   * a trusted (non-widened) VRA range bounds the phi directly.
  double trip_bound(const Loop& loop) const {
    double best = kInf;
    for (const auto& inst : loop.header->instructions()) {
      if (!inst->is_phi()) break;
      if (inst->type() != ScalarType::Int) continue;
      double min_step = kInf;
      int direction = 0; // +1 up, -1 down, 0 invalid
      bool ok = false;
      for (std::size_t i = 0; i < inst->num_operands(); ++i) {
        if (!loop.contains(inst->incoming_blocks()[i])) continue;
        const double step = affine_step(inst.get(), inst->operand(i));
        const int dir = step > 0.0 ? 1 : step < 0.0 ? -1 : 0;
        if (dir == 0 || (direction != 0 && dir != direction)) {
          ok = false;
          break;
        }
        direction = dir;
        min_step = std::min(min_step, std::abs(step));
        ok = true;
      }
      if (!ok || !std::isfinite(min_step)) continue;

      // The phi's entry value: bound every incoming from outside the loop
      // (up-counting starts at the smallest, down-counting at the largest;
      // non-constant starts — triangular nests — go through the structural
      // integer bounds).
      double start = direction > 0 ? kInf : -kInf;
      for (std::size_t i = 0; i < inst->num_operands(); ++i) {
        if (loop.contains(inst->incoming_blocks()[i])) continue;
        const ir::Value* in = inst->operand(i);
        const double c = direction > 0 ? int_lower_bound(in, kIntBoundDepth)
                                       : int_upper_bound(in, kIntBoundDepth);
        start = direction > 0 ? std::min(start, c) : std::max(start, c);
      }
      if (std::isfinite(start)) {
        const double limit =
            guard_limit(loop, inst.get(), direction, kIntBoundDepth);
        if (std::isfinite(limit)) {
          const double span = direction > 0 ? limit - start : start - limit;
          best = std::min(best,
                          std::floor(std::max(0.0, span) / min_step) + 1.0);
        }
      }

      const Interval r = ranges_.of(inst.get());
      if (trusted(r))
        best = std::min(best, std::floor(r.width() / min_step) + 1.0);
    }
    return best;
  }

  /// The value the phi cannot pass while the loop keeps iterating, from a
  /// conditional exit branch comparing the phi against a bounded integer
  /// expression: the largest still-in-loop value for an up-counting phi
  /// (direction > 0), the smallest for a down-counting one. kInf/-kInf
  /// when no usable guard exists. NE guards are ignored (a stride over 1
  /// can step past the limit without ever being equal to it).
  double guard_limit(const Loop& loop, const Instruction* phi, int direction,
                     int depth) const {
    double limit = direction > 0 ? kInf : -kInf;
    for (const ir::BasicBlock* bb : loop.blocks) {
      const Instruction* term = bb->terminator();
      if (term == nullptr || term->opcode() != Opcode::CondBr) continue;
      const auto targets = term->targets();
      if (targets.size() != 2) continue;
      const bool true_in = loop.contains(targets[0]);
      const bool false_in = loop.contains(targets[1]);
      if (true_in == false_in) continue; // not an exit branch
      const ir::Value* cond = term->operand(0);
      if (!cond->is_instruction()) continue;
      const auto* cmp = static_cast<const Instruction*>(cond);
      if (cmp->opcode() != Opcode::ICmp) continue;
      // Normalize to `phi PRED limit`.
      const ir::Value* lhs = cmp->operand(0);
      const ir::Value* rhs = cmp->operand(1);
      ir::CmpPred pred = cmp->predicate();
      if (rhs == phi && lhs != phi) {
        std::swap(lhs, rhs);
        pred = swap_pred(pred);
      }
      if (lhs != phi) continue;
      // The predicate that holds while control stays in the loop. A
      // non-constant limit (triangular nests: `j < i`) is bounded
      // structurally in the direction that keeps the span an upper bound.
      if (false_in) pred = negate_pred(pred);
      const double c = direction > 0 ? int_upper_bound(rhs, depth)
                                     : int_lower_bound(rhs, depth);
      if (!std::isfinite(c)) continue;
      if (direction > 0) {
        if (pred == ir::CmpPred::LT) limit = std::min(limit, c - 1.0);
        else if (pred == ir::CmpPred::LE) limit = std::min(limit, c);
      } else {
        if (pred == ir::CmpPred::GT) limit = std::max(limit, c + 1.0);
        else if (pred == ir::CmpPred::GE) limit = std::max(limit, c);
      }
    }
    return limit;
  }

  /// Structural upper bound on an integer value's runtime magnitude:
  /// constants, affine combinations, and guard-bounded induction phis
  /// (which is what makes triangular loop nests — `for j < i` — yield
  /// finite trip products). kInf when no bound is derivable.
  double int_upper_bound(const ir::Value* v, int depth) const {
    if (v->kind() == ir::Value::Kind::ConstInt)
      return static_cast<double>(static_cast<const ir::ConstInt*>(v)->value());
    if (depth <= 0 || !v->is_instruction()) return kInf;
    const auto* inst = static_cast<const Instruction*>(v);
    switch (inst->opcode()) {
    case Opcode::IAdd:
      return int_upper_bound(inst->operand(0), depth - 1) +
             int_upper_bound(inst->operand(1), depth - 1);
    case Opcode::ISub:
      return int_upper_bound(inst->operand(0), depth - 1) -
             int_lower_bound(inst->operand(1), depth - 1);
    case Opcode::IMul: {
      const auto cfactor = [](const ir::Value* x) -> double {
        if (x->kind() != ir::Value::Kind::ConstInt) return -1.0;
        const auto c = static_cast<const ir::ConstInt*>(x)->value();
        return c >= 0 ? static_cast<double>(c) : -1.0;
      };
      double c = cfactor(inst->operand(1));
      const ir::Value* other = inst->operand(0);
      if (c < 0.0) {
        c = cfactor(inst->operand(0));
        other = inst->operand(1);
      }
      if (c < 0.0) return kInf;
      const double ub = int_upper_bound(other, depth - 1);
      return ub >= 0.0 ? ub * c : kInf; // negative ub * c would flip sign
    }
    case Opcode::Phi:
      return phi_bound(inst, depth, +1);
    default:
      return kInf;
    }
  }

  /// Structural lower bound, mirror of int_upper_bound.
  double int_lower_bound(const ir::Value* v, int depth) const {
    if (v->kind() == ir::Value::Kind::ConstInt)
      return static_cast<double>(static_cast<const ir::ConstInt*>(v)->value());
    if (depth <= 0 || !v->is_instruction()) return -kInf;
    const auto* inst = static_cast<const Instruction*>(v);
    switch (inst->opcode()) {
    case Opcode::IAdd:
      return int_lower_bound(inst->operand(0), depth - 1) +
             int_lower_bound(inst->operand(1), depth - 1);
    case Opcode::ISub:
      return int_lower_bound(inst->operand(0), depth - 1) -
             int_upper_bound(inst->operand(1), depth - 1);
    case Opcode::Phi:
      return phi_bound(inst, depth, -1);
    default:
      return -kInf;
    }
  }

  /// Bound of an induction phi in `direction` (+1 upper, -1 lower): the
  /// bound over its entry values, extended along the stepping direction by
  /// the loop's guard limit (plus one step of overshoot before the guard
  /// exits). Non-induction phis and mixed-direction steps are unbounded.
  double phi_bound(const Instruction* phi, int depth, int direction) const {
    const Loop* loop = nullptr;
    for (const auto& l : loops_.loops)
      if (l.header == phi->parent()) {
        loop = &l;
        break;
      }
    double entry = direction > 0 ? -kInf : kInf;
    bool any_entry = false;
    int step_dir = 0;
    double max_step = 0.0;
    for (std::size_t i = 0; i < phi->num_operands(); ++i) {
      const ir::BasicBlock* in_bb = phi->incoming_blocks()[i];
      if (loop != nullptr && loop->contains(in_bb)) {
        const double step = affine_step(phi, phi->operand(i));
        const int dir = step > 0.0 ? 1 : step < 0.0 ? -1 : 0;
        if (dir == 0 || (step_dir != 0 && dir != step_dir))
          return direction > 0 ? kInf : -kInf;
        step_dir = dir;
        max_step = std::max(max_step, std::abs(step));
        continue;
      }
      const double b = direction > 0 ? int_upper_bound(phi->operand(i), depth - 1)
                                     : int_lower_bound(phi->operand(i), depth - 1);
      entry = direction > 0 ? std::max(entry, b) : std::min(entry, b);
      any_entry = true;
    }
    if (!any_entry || !std::isfinite(entry))
      return direction > 0 ? kInf : -kInf;
    if (loop == nullptr || step_dir == 0 || step_dir != direction)
      return entry; // steps away from `direction`: the entry value bounds it
    const double limit = guard_limit(*loop, phi, direction, depth - 1);
    if (!std::isfinite(limit)) return direction > 0 ? kInf : -kInf;
    return direction > 0 ? std::max(entry, limit + max_step)
                         : std::min(entry, limit - max_step);
  }

  static ir::CmpPred swap_pred(ir::CmpPred p) {
    switch (p) {
    case ir::CmpPred::LT: return ir::CmpPred::GT;
    case ir::CmpPred::LE: return ir::CmpPred::GE;
    case ir::CmpPred::GT: return ir::CmpPred::LT;
    case ir::CmpPred::GE: return ir::CmpPred::LE;
    default: return p;
    }
  }

  static ir::CmpPred negate_pred(ir::CmpPred p) {
    switch (p) {
    case ir::CmpPred::EQ: return ir::CmpPred::NE;
    case ir::CmpPred::NE: return ir::CmpPred::EQ;
    case ir::CmpPred::LT: return ir::CmpPred::GE;
    case ir::CmpPred::LE: return ir::CmpPred::GT;
    case ir::CmpPred::GT: return ir::CmpPred::LE;
    case ir::CmpPred::GE: return ir::CmpPred::LT;
    }
    return p;
  }

  /// The constant step if `v` is `phi + c` / `phi - c`; 0 otherwise.
  static double affine_step(const Instruction* phi, const ir::Value* v) {
    if (!v->is_instruction()) return 0.0;
    const auto* inst = static_cast<const Instruction*>(v);
    const auto const_int = [](const ir::Value* x) -> double {
      if (x->kind() != ir::Value::Kind::ConstInt) return 0.0;
      return static_cast<double>(static_cast<const ir::ConstInt*>(x)->value());
    };
    if (inst->opcode() == Opcode::IAdd) {
      if (inst->operand(0) == phi) return const_int(inst->operand(1));
      if (inst->operand(1) == phi) return const_int(inst->operand(0));
    } else if (inst->opcode() == Opcode::ISub && inst->operand(0) == phi) {
      return -const_int(inst->operand(1));
    }
    return 0.0;
  }

  double block_bound(const ir::BasicBlock* bb) const {
    double n = 1.0;
    for (const std::size_t li : loops_.containing(bb)) {
      n *= loop_trips_[li];
      if (!std::isfinite(n) || n > kMaxTripProduct) return kInf;
    }
    return n;
  }

  /// How often the target's joins can fire in one concrete run: total
  /// store executions for an array, block executions for a loop phi.
  double execution_bound(const ir::Value* target) const {
    if (target->is_array()) {
      const auto it = store_bounds_.find(target);
      if (it == store_bounds_.end()) return 1.0;
      return it->second > kMaxTripProduct ? kInf : it->second;
    }
    if (target->is_instruction()) {
      const auto* inst = static_cast<const Instruction*>(target);
      if (inst->parent()) return block_bound(inst->parent());
    }
    return kInf;
  }

  /// Recursion budget for the structural integer bounds.
  static constexpr int kIntBoundDepth = 6;

  const ir::Function& f_;
  const interp::TypeAssignment& types_;
  const vra::RangeMap& ranges_;
  bool divergent_ = false;
  LoopInfo loops_;
  std::vector<double> loop_trips_;
  std::map<const ir::Value*, double> store_bounds_;
  std::map<const ir::Value*, double> caps_;
  std::map<const ir::Value*, WidenState> widen_;
  int last_extrap_pass_ = -1;
  const ir::Value* last_extrap_target_ = nullptr;
  long capped_ = 0;
  bool float_capped_ = false;
};

} // namespace

ErrorAnalysisResult analyze_errors(const ir::Function& f,
                                   const interp::TypeAssignment& assignment,
                                   const vra::RangeMap& ranges) {
  ErrorAnalysisResult out;
  obs::TraceSpan span(
      "analysis.error_bounds", "analysis",
      [&] { return obs::Args().str("function", f.name()).done(); },
      obs::TimeSink{&out.seconds});
  ErrorDomain domain(f, assignment, ranges);
  DataflowOptions df;
  df.max_passes = kMaxPasses;
  df.widen_after = kWidenAfter;
  ForwardDataflow<ErrorDomain> engine(f, domain, df);
  out.stats = engine.run();
  out.divergent_control = domain.divergent();
  out.capped_bounds = domain.capped();
  out.assumes_finite_run = domain.assumes_finite_run();

  for (const auto& [value, err] : engine.state())
    out.errors.set(value, sanitize(err));
  if (!out.stats.converged) {
    // A truncated iteration under-approximates whatever was still
    // growing; nothing in the state is a certificate.
    for (const auto& [value, err] : out.errors.entries())
      out.errors.set(value, ErrorMap::kUnbounded);
  }
  span.end();

  obs::metrics().counter("analysis.error.runs").inc();
  obs::metrics().counter("analysis.error.fixpoint_passes").inc(out.stats.passes);
  obs::metrics().counter("analysis.error.widenings").inc(out.stats.widenings);
  obs::metrics().counter("analysis.error.capped_bounds").inc(out.capped_bounds);
  if (!out.stats.converged)
    obs::metrics().counter("analysis.error.nonconverged").inc();
  return out;
}

} // namespace luis::analysis
