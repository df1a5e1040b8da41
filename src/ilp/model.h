#ifndef MUVE_ILP_MODEL_H_
#define MUVE_ILP_MODEL_H_

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace muve::ilp {

/// Constraint relation.
enum class Relation {
  kLessEqual,
  kGreaterEqual,
  kEqual,
};

/// Optimization direction.
enum class Sense {
  kMinimize,
  kMaximize,
};

/// Sparse linear expression: sum of coefficient * variable plus constant.
struct LinearExpr {
  std::vector<std::pair<int, double>> terms;  ///< (variable index, coef).
  double constant = 0.0;

  LinearExpr& Add(int var, double coef) {
    terms.emplace_back(var, coef);
    return *this;
  }
};

/// A mixed-integer linear program. Variables have bounds and an
/// integrality flag; the MUVE formulation uses binary structural variables
/// and continuous auxiliary (linearization) variables.
class Model {
 public:
  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

  /// Adds a continuous variable with bounds [lb, ub]; returns its index.
  int AddVariable(std::string name, double lb, double ub) {
    names_.push_back(std::move(name));
    lower_.push_back(lb);
    upper_.push_back(ub);
    is_integer_.push_back(false);
    objective_.push_back(0.0);
    return static_cast<int>(names_.size()) - 1;
  }

  /// Adds a binary (0/1 integer) variable; returns its index.
  int AddBinary(std::string name) {
    const int var = AddVariable(std::move(name), 0.0, 1.0);
    is_integer_.back() = true;
    return var;
  }

  /// Adds an integer variable with bounds [lb, ub].
  int AddInteger(std::string name, double lb, double ub) {
    const int var = AddVariable(std::move(name), lb, ub);
    is_integer_.back() = true;
    return var;
  }

  /// Adds the constraint expr (relation) rhs. The expression constant is
  /// moved to the right-hand side.
  void AddConstraint(const LinearExpr& expr, Relation relation, double rhs) {
    rows_.push_back(expr.terms);
    relations_.push_back(relation);
    rhs_.push_back(rhs - expr.constant);
  }

  /// Sets the objective coefficient of one variable (adds to any previous
  /// coefficient).
  void AddObjectiveTerm(int var, double coef) { objective_[var] += coef; }

  /// Adds a constant to the objective (tracked, not optimized).
  void AddObjectiveConstant(double value) { objective_constant_ += value; }

  void SetSense(Sense sense) { sense_ = sense; }

  /// Introduces a continuous variable y constrained to equal the product
  /// x * z of a binary variable `binary_var` and a variable `bounded_var`
  /// with values in [0, upper]:
  ///   y <= upper * x,  y <= z,  y >= z - upper * (1 - x),  y >= 0.
  /// The bounds pin y to x*z at every integral solution, so y needs no
  /// integrality flag (paper §5.3 footnote on linearized products).
  int AddProductVariable(std::string name, int binary_var, int bounded_var,
                         double upper) {
    const int y = AddVariable(std::move(name), 0.0, upper);
    LinearExpr le_ub;  // y - upper * x <= 0.
    le_ub.Add(y, 1.0).Add(binary_var, -upper);
    AddConstraint(le_ub, Relation::kLessEqual, 0.0);
    LinearExpr le_z;  // y - z <= 0.
    le_z.Add(y, 1.0).Add(bounded_var, -1.0);
    AddConstraint(le_z, Relation::kLessEqual, 0.0);
    LinearExpr ge;  // y - z - upper * x >= -upper.
    ge.Add(y, 1.0).Add(bounded_var, -1.0).Add(binary_var, -upper);
    AddConstraint(ge, Relation::kGreaterEqual, -upper);
    return y;
  }

  size_t num_variables() const { return names_.size(); }
  size_t num_constraints() const { return rows_.size(); }
  size_t num_integer_variables() const {
    size_t n = 0;
    for (bool flag : is_integer_) n += flag ? 1 : 0;
    return n;
  }

  const std::string& name(int var) const { return names_[var]; }
  double lower_bound(int var) const { return lower_[var]; }
  double upper_bound(int var) const { return upper_[var]; }
  bool is_integer(int var) const { return is_integer_[var]; }
  double objective_coefficient(int var) const { return objective_[var]; }
  double objective_constant() const { return objective_constant_; }
  Sense sense() const { return sense_; }

  const std::vector<std::pair<int, double>>& row(size_t i) const {
    return rows_[i];
  }
  Relation relation(size_t i) const { return relations_[i]; }
  double rhs(size_t i) const { return rhs_[i]; }

  /// Objective value of an assignment (includes the constant term).
  double EvaluateObjective(const std::vector<double>& x) const {
    double value = objective_constant_;
    for (size_t v = 0; v < objective_.size(); ++v) {
      value += objective_[v] * x[v];
    }
    return value;
  }

  /// True when `x` satisfies all constraints and bounds within `tol`.
  bool IsFeasible(const std::vector<double>& x, double tol = 1e-6) const {
    if (x.size() != names_.size()) return false;
    for (size_t v = 0; v < names_.size(); ++v) {
      if (x[v] < lower_[v] - tol || x[v] > upper_[v] + tol) return false;
      if (is_integer_[v] && std::fabs(x[v] - std::round(x[v])) > tol) {
        return false;
      }
    }
    for (size_t i = 0; i < rows_.size(); ++i) {
      double lhs = 0.0;
      for (const auto& [var, coef] : rows_[i]) lhs += coef * x[var];
      switch (relations_[i]) {
        case Relation::kLessEqual:
          if (lhs > rhs_[i] + tol) return false;
          break;
        case Relation::kGreaterEqual:
          if (lhs < rhs_[i] - tol) return false;
          break;
        case Relation::kEqual:
          if (std::fabs(lhs - rhs_[i]) > tol) return false;
          break;
      }
    }
    return true;
  }

 private:
  std::vector<std::string> names_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<bool> is_integer_;
  std::vector<double> objective_;
  double objective_constant_ = 0.0;
  Sense sense_ = Sense::kMinimize;

  std::vector<std::vector<std::pair<int, double>>> rows_;
  std::vector<Relation> relations_;
  std::vector<double> rhs_;
};

}  // namespace muve::ilp

#endif  // MUVE_ILP_MODEL_H_
