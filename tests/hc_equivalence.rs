//! The `HC` driver and `HCcs` against their oracle, the golden table
//! recorded before the lift/drop evaluator (`common::golden`): from `BSPg`,
//! `Source` and `Cilk`, `HC` after 1 and 7 moves, at the local minimum and
//! from a seeded work-list, then `HCcs` after 1 and 7 moves and at its local
//! minimum, must end in the same schedule, step count, cost and local-minimum
//! flag, bit for bit.

mod common;

use common::golden::{check, Check};

#[test]
fn driver_matches_the_oracle_on_the_benchmark_families() {
    check(Check::Driver);
}
