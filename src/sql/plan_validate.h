#ifndef INDBML_SQL_PLAN_VALIDATE_H_
#define INDBML_SQL_PLAN_VALIDATE_H_

#include "common/status.h"
#include "sql/logical_plan.h"
#include "sql/optimizer.h"

namespace indbml::sql {

/// \brief Structural validation of a bound logical plan.
///
/// Re-checked after every optimizer pass when `INDBML_VALIDATE=1`, so a
/// broken rewrite (dangling column reference, join losing a key side,
/// outputs out of sync with children) fails the query with a descriptive
/// error instead of corrupting execution. Verifies per node: child counts
/// for the node kind, non-empty outputs, expression column references
/// resolving against child outputs, probe/build key symmetry on hash
/// joins, scan column indexes within the table, and output-column
/// consistency of pass-through nodes (filter/sort/limit).
Status ValidateLogicalPlan(const LogicalOp& plan);

/// \brief Safety check of the morsel-driven execution gate.
///
/// Run (under `INDBML_VALIDATE=1`) right before a plan is handed to the
/// morsel executor. Verifies the facts the morsel path relies on: the
/// analysis marked the plan parallel-safe and identified a partitioned
/// table, and — when the part of the plan that runs per morsel (below the
/// cut, if any) contains an aggregation or sort, whose decomposition
/// depends on partition boundaries never splitting a group — that the
/// partitioned table declares a unique-id column resolving to an Int64
/// column (MakeMorsels aligns morsel boundaries on it).
Status ValidateMorselSafety(const LogicalOp& plan, const PlanAnalysis& analysis);

}  // namespace indbml::sql

#endif  // INDBML_SQL_PLAN_VALIDATE_H_
