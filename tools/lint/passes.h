#pragma once

// Forward declarations of the registered passes. To add a pass: write
// pass_<name>.cc exposing one of these functions, declare it here, append
// a PassInfo row to the registry in lint.cc, add the ctest in
// tools/lint/CMakeLists.txt, and document it in docs/TOOLING.md. The
// fixture self-tests (tests/tools_lint_test.cc) should grow a known-bad
// fixture for every check the pass can emit.

#include <vector>

#include "lint/lint.h"

namespace ppsim::lint {

/// wall-clock / unordered-iter / pointer-key: the original determinism
/// hazards — ambient entropy, hash-order iteration feeding the scheduler,
/// pointer-keyed ordered containers.
void pass_determinism(const Tree& tree, std::vector<Finding>* findings);

/// mutable-global / static-local / static-member: inventory of every piece
/// of static mutable state. Must be empty (or rationale-allowlisted): this
/// is the precondition for ISP-sharded parallel execution.
void pass_shared_state(const Tree& tree, std::vector<Finding>* findings);

/// illegal-include / unknown-module / layer-cycle: enforces the declared
/// module DAG over the #include graph.
void pass_layering(const Tree& tree, std::vector<Finding>* findings);

/// float-accum: floating-point accumulation inside iteration loops in the
/// scheduler/protocol/network hot paths — results change under the
/// reordering that parallel reduction will introduce.
void pass_float_order(const Tree& tree, std::vector<Finding>* findings);

/// Lists that must move together. kMirrors rows (wire-doc,
/// resource-gauge-doc, rx-error-export, rx-error-doc, telemetry-record-doc)
/// match two name lists both ways. Bespoke: variant-membership,
/// span-member, message-fields (each message's field list vs its data
/// members), span-doc, span-stamp, drop-counter.
void pass_completeness(const Tree& tree, std::vector<Finding>* findings);

}  // namespace ppsim::lint
