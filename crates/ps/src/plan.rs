//! Partition plans and routing: how a matrix's parameters are laid out
//! across logical server slots, and how slots resolve to live processes.
//!
//! One layout rule covers every plan: a slot holds **one contiguous column
//! range** [`PartitionPlan::cols_of`] of each row it stores — a slice of
//! every row under column partitioning (the DCV layout of §4), the whole of
//! its own rows under row partitioning (the Petuum-style baseline of §4.3).
//! So the one routing question a client asks is
//! [`PartitionPlan::pieces`]: which slots hold columns `[lo, hi)` of a row,
//! in column order.
//!
//! Plans reference *slots* (`0..n_servers`), not process ids: when the
//! master replaces a failed server, it updates the shared [`RouteTable`] and
//! every outstanding [`crate::MatrixHandle`] transparently reaches the
//! replacement — the PS-master's "routing tables for PS-clients" of §5.1.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use ps2_simnet::ProcId;

/// Identifier of a matrix (a `k × dim` block of parameters) on the servers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct MatrixId(pub u64);

/// Requested layout when creating a matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Partitioning {
    /// Contiguous column ranges, range `i` on slot `i` — the PS2/DCV
    /// layout. All rows of one matrix share the plan, so same-matrix rows
    /// are dimension co-located by construction.
    Column,
    /// Column ranges with the slot assignment rotated by `r`. Two matrices
    /// created with different rotations are *misaligned*: element-wise ops
    /// between them need server↔server traffic — the "inefficient writing"
    /// of the paper's Figure 4.
    ColumnRotated(usize),
    /// Whole rows hashed to slots (`row % servers`) — the Petuum-style
    /// layout. Row access hits a single server (the "single-point problem"
    /// of §4.3); server-side column ops across rows on different servers
    /// are unsupported.
    Row,
}

/// Concrete layout of one matrix over logical server slots.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionPlan {
    /// Number of columns (feature dimension).
    pub dim: u64,
    /// Number of rows in the raw matrix (`k` in the paper's `dense(dim, k)`).
    pub rows: u32,
    pub kind: PlanKind,
}

#[derive(Clone, Debug, PartialEq)]
pub enum PlanKind {
    Column {
        /// `n_slots + 1` boundaries; range `i` is
        /// `[boundaries[i], boundaries[i+1])`.
        boundaries: Vec<u64>,
        /// Range `i` lives on slot `(i + rotation) % n_slots`, so every slot
        /// holds exactly one range.
        rotation: usize,
    },
    Row {
        n_slots: usize,
    },
}

impl PartitionPlan {
    pub fn new(dim: u64, rows: u32, n_slots: usize, p: Partitioning) -> PartitionPlan {
        assert!(dim > 0 && rows > 0 && n_slots > 0);
        let kind = match p {
            Partitioning::Column | Partitioning::ColumnRotated(_) => {
                let s = n_slots as u64;
                // Ranges may be empty when dim < n_slots; they are skipped
                // at routing time, so range `i` stays on its rotated slot.
                let boundaries: Vec<u64> = (0..=s).map(|i| i * dim / s).collect();
                let rotation = match p {
                    Partitioning::ColumnRotated(r) => r % n_slots,
                    _ => 0,
                };
                PlanKind::Column {
                    boundaries,
                    rotation,
                }
            }
            Partitioning::Row => PlanKind::Row { n_slots },
        };
        PartitionPlan { dim, rows, kind }
    }

    /// Two plans are *co-located* when every column lives on the same slot
    /// in both. Element-wise ops between co-located matrices need no
    /// server↔server communication.
    pub fn colocated_with(&self, other: &PartitionPlan) -> bool {
        self.dim == other.dim && self.kind == other.kind
    }

    /// For column plans: `(slot, lo, hi)` for every non-empty range, in
    /// column order.
    pub fn column_ranges(&self) -> Vec<(usize, u64, u64)> {
        match &self.kind {
            PlanKind::Column { .. } => self.pieces(0, 0, self.dim),
            PlanKind::Row { .. } => panic!("column_ranges on a row-partitioned plan"),
        }
    }

    /// The one column range `[lo, hi)` that `slot` holds of each row it
    /// stores: `(0, dim)` on a row plan, empty on a column plan whose `dim`
    /// leaves the slot without columns.
    pub fn cols_of(&self, slot: usize) -> (u64, u64) {
        match &self.kind {
            PlanKind::Column {
                boundaries,
                rotation,
            } => {
                let n = boundaries.len() - 1;
                let i = (slot + n - rotation) % n;
                (boundaries[i], boundaries[i + 1])
            }
            PlanKind::Row { .. } => (0, self.dim),
        }
    }

    /// For row plans: the slot owning `row`.
    pub fn row_owner(&self, row: u32) -> usize {
        match &self.kind {
            PlanKind::Row { n_slots } => row as usize % n_slots,
            PlanKind::Column { .. } => panic!("row_owner on a column-partitioned plan"),
        }
    }

    /// For row plans: where `row` sits among the rows its owner holds, in
    /// ascending row order. The other half of [`PartitionPlan::row_owner`]:
    /// slot `s` owns `s, s + n_slots, s + 2·n_slots, …`.
    pub fn row_index(&self, row: u32) -> usize {
        match &self.kind {
            PlanKind::Row { n_slots } => row as usize / n_slots,
            PlanKind::Column { .. } => panic!("row_index on a column-partitioned plan"),
        }
    }

    /// The slot owning column `col` (column plans only).
    pub fn col_owner(&self, col: u64) -> usize {
        assert!(col < self.dim, "column {col} out of range {}", self.dim);
        match &self.kind {
            PlanKind::Column {
                boundaries,
                rotation,
            } => {
                let i = match boundaries.binary_search(&col) {
                    Ok(mut i) => {
                        // `col` equals a boundary; find the non-empty range
                        // starting here.
                        while boundaries[i + 1] == boundaries[i] {
                            i += 1;
                        }
                        i
                    }
                    Err(i) => i - 1,
                };
                (i + rotation) % (boundaries.len() - 1)
            }
            PlanKind::Row { .. } => panic!("col_owner on a row-partitioned plan"),
        }
    }

    /// The routing question: which slots hold columns `[lo, hi)` of `row`,
    /// as `(slot, piece_lo, piece_hi)` non-empty pieces in column order. A
    /// row plan answers with the row's owner alone.
    pub fn pieces(&self, row: u32, lo: u64, hi: u64) -> Vec<(usize, u64, u64)> {
        match &self.kind {
            PlanKind::Column {
                boundaries,
                rotation,
            } => {
                let n = boundaries.len() - 1;
                let mut out = Vec::new();
                for (i, w) in boundaries.windows(2).enumerate() {
                    let (s, e) = (lo.max(w[0]), hi.min(w[1]));
                    if s < e {
                        out.push(((i + rotation) % n, s, e));
                    }
                }
                out
            }
            PlanKind::Row { .. } if lo < hi => vec![(self.row_owner(row), lo, hi)],
            PlanKind::Row { .. } => Vec::new(),
        }
    }
}

/// Shared slot → process routing, updated by the master on recovery.
pub struct RouteTable {
    slots: RwLock<Vec<ProcId>>,
    /// Recovery epoch: bumped on every [`RouteTable::set`]. A client whose
    /// request timed out compares epochs to tell a *slow* server (epoch
    /// unchanged — keep waiting / resend to the same process) from a
    /// *replaced* one (epoch advanced — re-resolve and retry the new
    /// process).
    epoch: AtomicU64,
}

impl RouteTable {
    pub fn new(servers: Vec<ProcId>) -> Arc<RouteTable> {
        Arc::new(RouteTable {
            slots: RwLock::new(servers),
            epoch: AtomicU64::new(0),
        })
    }

    pub fn resolve(&self, slot: usize) -> ProcId {
        self.slots.read()[slot]
    }

    pub fn set(&self, slot: usize, id: ProcId) {
        let mut slots = self.slots.write();
        slots[slot] = id;
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Current recovery epoch (see the field docs).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    pub fn n_slots(&self) -> usize {
        self.slots.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_plan_covers_dim_exactly() {
        let plan = PartitionPlan::new(103, 4, 4, Partitioning::Column);
        let ranges = plan.column_ranges();
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0].1, 0);
        assert_eq!(ranges.last().unwrap().2, 103);
        let covered: u64 = ranges.iter().map(|&(_, lo, hi)| hi - lo).sum();
        assert_eq!(covered, 103);
        for w in ranges.windows(2) {
            assert_eq!(w[0].2, w[1].1, "ranges must be contiguous");
        }
    }

    #[test]
    fn rotated_plan_is_not_colocated() {
        let a = PartitionPlan::new(100, 2, 4, Partitioning::Column);
        let b = PartitionPlan::new(100, 2, 4, Partitioning::ColumnRotated(1));
        let c = PartitionPlan::new(100, 2, 4, Partitioning::Column);
        assert!(a.colocated_with(&c));
        assert!(!a.colocated_with(&b));
        // Same boundaries, shifted slots.
        assert_eq!(a.column_ranges()[0].1, b.column_ranges()[0].1);
        assert_ne!(a.column_ranges()[0].0, b.column_ranges()[0].0);
    }

    #[test]
    fn col_owner_matches_ranges() {
        let plan = PartitionPlan::new(97, 1, 5, Partitioning::ColumnRotated(2));
        for (slot, lo, hi) in plan.column_ranges() {
            for c in lo..hi {
                assert_eq!(plan.col_owner(c), slot, "col {c}");
            }
        }
    }

    #[test]
    fn row_plan_routes_by_modulo() {
        let plan = PartitionPlan::new(10, 7, 3, Partitioning::Row);
        assert_eq!(plan.row_owner(0), 0);
        assert_eq!(plan.row_owner(4), 1);
        assert_eq!(plan.row_owner(5), 2);
    }

    /// Owner and index together partition `0..rows`: every `(slot, idx)` is
    /// hit exactly once and `idx` stays below the slot's owned-row count,
    /// ragged last stripe included.
    #[test]
    fn row_owner_and_index_partition_the_rows() {
        for (rows, n_slots) in [(10u32, 4usize), (7, 3), (8, 4), (3, 5)] {
            let plan = PartitionPlan::new(10, rows, n_slots, Partitioning::Row);
            let mut hit: Vec<Vec<bool>> = (0..n_slots)
                .map(|s| vec![false; (0..rows).filter(|&r| plan.row_owner(r) == s).count()])
                .collect();
            for row in 0..rows {
                let (slot, idx) = (plan.row_owner(row), plan.row_index(row));
                assert!(idx < hit[slot].len(), "row {row}: idx {idx} on slot {slot}");
                assert!(!hit[slot][idx], "row {row}: ({slot}, {idx}) hit twice");
                hit[slot][idx] = true;
            }
            assert!(hit.iter().flatten().all(|&h| h));
        }
    }

    #[test]
    fn pieces_split_a_range_across_slots() {
        let plan = PartitionPlan::new(100, 1, 4, Partitioning::Column);
        // ranges: [0,25) [25,50) [50,75) [75,100)
        let pieces = plan.pieces(0, 20, 60);
        assert_eq!(pieces, vec![(0, 20, 25), (1, 25, 50), (2, 50, 60)]);
        // Rotated by one: same pieces, each one slot further on.
        let rotated = PartitionPlan::new(100, 1, 4, Partitioning::ColumnRotated(1));
        assert_eq!(
            rotated.pieces(0, 20, 60),
            vec![(1, 20, 25), (2, 25, 50), (3, 50, 60)]
        );
        assert_eq!(rotated.cols_of(0), (75, 100));
        let rows = PartitionPlan::new(100, 7, 4, Partitioning::Row);
        assert_eq!(rows.pieces(6, 20, 60), vec![(2, 20, 60)]);
        assert_eq!(rows.pieces(6, 20, 20), vec![]);
    }

    #[test]
    fn dim_smaller_than_slots_leaves_empty_ranges_out() {
        let plan = PartitionPlan::new(2, 1, 4, Partitioning::Column);
        let ranges = plan.column_ranges();
        let covered: u64 = ranges.iter().map(|&(_, lo, hi)| hi - lo).sum();
        assert_eq!(covered, 2);
        for &(_, lo, hi) in &ranges {
            assert!(lo < hi);
        }
    }

    #[test]
    fn route_table_updates_are_visible() {
        let rt = RouteTable::new(vec![ProcId(1), ProcId(2)]);
        assert_eq!(rt.resolve(1), ProcId(2));
        rt.set(1, ProcId(9));
        assert_eq!(rt.resolve(1), ProcId(9));
        assert_eq!(rt.n_slots(), 2);
    }

    #[test]
    fn route_table_epoch_advances_on_every_replacement() {
        let rt = RouteTable::new(vec![ProcId(1), ProcId(2)]);
        assert_eq!(rt.epoch(), 0);
        rt.set(0, ProcId(7));
        assert_eq!(rt.epoch(), 1);
        rt.set(0, ProcId(8));
        rt.set(1, ProcId(9));
        assert_eq!(rt.epoch(), 3);
    }
}
