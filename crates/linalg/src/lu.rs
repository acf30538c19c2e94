//! LU factorization with partial pivoting.
//!
//! Modified-nodal-analysis (MNA) systems assembled by the circuit engine are
//! square but neither symmetric nor positive definite, so the GP-oriented
//! [`crate::Cholesky`] cannot solve them. This module provides the classic
//! Doolittle LU with row pivoting in two forms that return the same bits:
//!
//! - the dense kernel ([`Lu::new`], [`Lu::refactor`]), which eliminates every
//!   entry of the matrix;
//! - the structured refactor ([`Lu::refactor_structured`]) for a caller that
//!   knows which entries it wrote (one column mask per row, as an MNA
//!   assembly stamps them). It eliminates only the rows with a structural
//!   entry in the pivot column, over the pivot row's structural span, and
//!   it replays a recorded pivot sequence for as long as the dense pivot
//!   rule would choose it again — the refactorization sparse circuit
//!   solvers do (KLU: Davis & Palamadai Natarajan, "Algorithm 907", ACM
//!   TOMS 37(3), 2010).
//!
//! # Why the structured path is exact
//!
//! The structured factorization copies the whole matrix and runs the dense
//! kernel's arithmetic on it in the dense kernel's order, leaving out only
//! work that cannot change a bit:
//!
//! - *Pivot choice.* The dense kernel takes the first row, in position order
//!   from row `k`, whose `|a_ik|` strictly exceeds the running maximum.
//!   Entries outside the structure hold `+0.0` and can never win. A recorded
//!   pivot is therefore the dense choice exactly when the structural
//!   candidates before it are strictly smaller, those after it are no
//!   larger, and it is nonzero and finite — ties between `±1` branch
//!   entries included.
//! - *Skipped rows.* A row with no structural entry in column `k` has the
//!   multiplier `±0.0`. The dense kernel skips the update of every row
//!   whose multiplier is zero, and so does the structured path (which also
//!   keeps `0·inf` out of an overflowed pivot row).
//! - *Skipped columns.* Past the pivot row's last structural entry the
//!   update is `v − m·(+0.0)`, which with a finite `m` is `v` unless `v` is
//!   `−0.0`; a matrix without `−0.0` entries never produces one (`x − y` is
//!   `−0.0` only when `x` is). So the structured path runs only while every
//!   structural entry is finite and not `−0.0` and every multiplier stays
//!   finite; anything else runs the dense kernel.
//! - *L zeros.* The dense kernel stores `0/pivot` (`−0.0` under a negative
//!   pivot) at structurally zero `L` positions; [`Lu::factor`] writes them
//!   when asked.
//! - *Solve.* Skipping a structural zero changes a running sum only when the
//!   sum is `−0.0`, which it is only when it starts from a `−0.0`
//!   right-hand-side entry; such a row runs the dense kernel's full row. A
//!   non-finite intermediate reruns the whole substitution on full rows.

use crate::{LinalgError, Matrix};
use std::borrow::Cow;

/// Widest system the structured refactor handles: one `u64` column mask
/// per row.
const MAX_STRUCTURED_DIM: usize = 64;

/// Pivot sequences kept for replay, most recently used first.
const PLANS: usize = 8;

/// LU factorization `P A = L U` with partial (row) pivoting.
///
/// # Examples
///
/// ```
/// use mfbo_linalg::{Matrix, Lu};
///
/// # fn main() -> Result<(), mfbo_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]]); // needs pivoting
/// let lu = Lu::new(&a)?;
/// let x = lu.solve(&[2.0, 3.0]);
/// assert!((x[0] - 2.0).abs() < 1e-12); // x = (2, 1)
/// assert!((x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined storage: the strictly-lower part holds `L` (unit diagonal
    /// implied), the upper part `U`. After a dense factorization, row `i`
    /// is position `i`; after a structured one, row `perm[i]` holds
    /// position `i`, and the `L` entries outside the active plan's
    /// structure are not written.
    lu: Matrix,
    /// Row permutation: row `i` of the factored matrix is row `perm[i]` of
    /// the input.
    perm: Vec<usize>,
    /// Sign of the permutation, needed for the determinant.
    perm_sign: f64,
    /// Whether `lu` holds a structured factorization, of `plans[0]`.
    structured: bool,
    /// Recorded pivot sequences, most recently used first.
    plans: Vec<Plan>,
    /// The pivot row's entries during a structured elimination step.
    pivot_row: Vec<f64>,
}

/// One recorded structured factorization: a pivot sequence and the flat
/// lists that replay it on any matrix with the same stamped structure.
#[derive(Debug, Clone, Default)]
struct Plan {
    /// The column mask of every input row the plan was recorded from;
    /// empty while the plan holds nothing.
    stamped: Vec<u64>,
    /// The factors' column masks by input row: the stamped entries plus the
    /// fill-in of the pivot sequence.
    filled: Vec<u64>,
    /// The stamped entries, as indices into the row-major matrix.
    gate: Vec<u16>,
    /// Row permutation, as [`Lu::permutation`].
    perm: Vec<usize>,
    /// Sign of `perm`.
    perm_sign: f64,
    /// The elimination steps, one per column.
    steps: Vec<Step>,
    /// Every step's non-pivot candidates: the other rows at positions
    /// `k..n` with a structural entry in column `k`, in position order.
    cands: Vec<u8>,
}

/// Elimination step `k` of a [`Plan`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct Step {
    /// The pivot's input row.
    pivot_row: u8,
    /// The position the pivot row came from (swapped with position `k`).
    swap: u8,
    /// How many of the step's candidates precede the pivot in position
    /// order.
    before: u8,
    /// One past the pivot row's last structural column.
    span_end: u8,
    /// End of the step's candidates in [`Plan::cands`].
    cands_end: u16,
}

impl Plan {
    /// Grows every buffer to what an `n`-row record can fill, so recording
    /// never allocates.
    fn reserve(&mut self, n: usize) {
        fn grow<T>(v: &mut Vec<T>, cap: usize) {
            if v.capacity() < cap {
                v.reserve_exact(cap - v.len());
            }
        }
        grow(&mut self.stamped, n);
        grow(&mut self.filled, n);
        grow(&mut self.gate, n * n);
        grow(&mut self.perm, n);
        grow(&mut self.steps, n);
        // Every step pushes its pivot before removing it.
        grow(&mut self.cands, n * (n + 1) / 2);
    }
}

impl Default for Lu {
    /// An empty factorization (`dim() == 0`), to be filled by
    /// [`Lu::refactor`].
    fn default() -> Self {
        Lu {
            lu: Matrix::zeros(0, 0),
            perm: Vec::new(),
            perm_sign: 1.0,
            structured: false,
            plans: Vec::new(),
            pivot_row: Vec::new(),
        }
    }
}

impl Lu {
    /// Factorizes `a`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if no usable pivot exists in some
    /// column and [`LinalgError::ShapeMismatch`] if `a` is not square.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        let mut lu = Lu::default();
        lu.refactor(a)?;
        Ok(lu)
    }

    /// Factorizes `a` into this factorization's own storage, reusing its
    /// buffers when they are large enough (the allocation-free path of
    /// an iterative solver that refactors every step).
    ///
    /// On `Err` the factorization is left empty (`dim() == 0`), so a stale
    /// factor of an earlier matrix can never be used to solve.
    ///
    /// # Errors
    ///
    /// As [`Lu::new`].
    pub fn refactor(&mut self, a: &Matrix) -> Result<(), LinalgError> {
        self.structured = false;
        let factored = if a.is_square() {
            let n = a.rows();
            self.lu.clone_from(a);
            self.perm.clear();
            self.perm.extend(0..n);
            factor_in_place(self.lu.as_mut_slice(), n, &mut self.perm)
        } else {
            Err(LinalgError::ShapeMismatch { context: "lu" })
        };
        match factored {
            Ok(sign) => {
                self.perm_sign = sign;
                Ok(())
            }
            Err(e) => {
                // Empty, but the buffers keep their capacity.
                self.lu.clone_from(&Matrix::zeros(0, 0));
                self.perm.clear();
                self.perm_sign = 1.0;
                Err(e)
            }
        }
    }

    /// Factorizes `a`, whose entries outside `rows` are all `+0.0`, to the
    /// same bits as [`Lu::refactor`], eliminating over structural entries
    /// only.
    ///
    /// `rows[i]` has bit `j` set when the caller wrote entry `(i, j)` (an
    /// MNA assembly sets one bit per stamp). The pivot sequences recorded
    /// for this structure are replayed first, most recently used first,
    /// each pivot checked against the dense rule. A replay that fails at
    /// step `k` goes on under another sequence with the same first `k`
    /// steps, if one is kept; otherwise a structure-driven factorization
    /// records a new sequence from step `k` on, in place of the least
    /// recently used one. The dense kernel runs instead for a matrix the
    /// structured path cannot reproduce exactly (a non-finite or `−0.0`
    /// structural entry, a non-finite multiplier, a zero or non-finite
    /// pivot), a non-square or empty one, one wider than 64 rows, and a
    /// `rows` of the wrong length.
    ///
    /// Returns whether a recorded pivot sequence was replayed. After the
    /// first call for a dimension, no call allocates.
    ///
    /// # Errors
    ///
    /// As [`Lu::refactor`].
    pub fn refactor_structured(&mut self, a: &Matrix, rows: &[u64]) -> Result<bool, LinalgError> {
        let n = a.rows();
        if !a.is_square() || n == 0 || n > MAX_STRUCTURED_DIM || rows.len() != n {
            return self.refactor(a).map(|()| false);
        }
        debug_assert!(
            outside_is_plus_zero(a, rows),
            "an entry outside the stamped structure is not +0.0"
        );
        self.structured = false;
        if self.pivot_row.len() != n {
            self.plans.resize_with(PLANS, Plan::default);
            for plan in &mut self.plans {
                plan.reserve(n);
            }
            self.pivot_row.resize(n, 0.0);
        }
        let exact = match self.plans.iter().find(|p| p.stamped == rows) {
            Some(plan) => plan
                .gate
                .iter()
                .all(|&e| exact_entry(a.as_slice()[e as usize])),
            None => stamped_entries(rows).all(|e| exact_entry(a.as_slice()[e])),
        };
        if !exact {
            return self.refactor(a).map(|()| false);
        }
        self.lu.clone_from(a);
        // After a replay fails, the plan it ran and the step it stopped at:
        // `lu` holds the dense kernel's state after that plan's first steps.
        let mut stopped: Option<(usize, usize)> = None;
        for i in 0..PLANS {
            let plan = &self.plans[i];
            if plan.stamped != rows {
                continue;
            }
            // A plan that leaves the prefix the dense rule confirmed for
            // another would fail where it leaves; one that keeps it resumes.
            let from = match stopped {
                None => 0,
                Some((j, k)) if plan.steps[..k] == self.plans[j].steps[..k] => k,
                Some(_) => continue,
            };
            match replay(self.lu.as_mut_slice(), plan, from, &mut self.pivot_row) {
                Ok(()) => {
                    self.plans[..=i].rotate_right(1);
                    self.activate();
                    return Ok(true);
                }
                Err(Stop::PivotMoved(k)) => stopped = Some((i, k)),
                Err(Stop::NonFinite) => return self.refactor(a).map(|()| false),
            }
        }
        // Record into the least recently used plan, from where the last
        // replay stopped.
        let last = PLANS - 1;
        let from = match stopped {
            Some((j, k)) => {
                copy_prefix(&mut self.plans, j, last, k);
                k
            }
            None => 0,
        };
        let (w, plan) = (self.lu.as_mut_slice(), &mut self.plans[last]);
        if record(w, rows, plan, from, &mut self.pivot_row) {
            self.plans.rotate_right(1);
            self.activate();
            Ok(false)
        } else {
            self.refactor(a).map(|()| false)
        }
    }

    /// Makes `plans[0]`'s factorization, already in `lu`, the active one.
    fn activate(&mut self) {
        let plan = &self.plans[0];
        self.perm.clone_from(&plan.perm);
        self.perm_sign = plan.perm_sign;
        self.structured = true;
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Combined factor storage: the strictly-lower part holds `L` (unit
    /// diagonal implied), the upper part `U`. After a structured refactor
    /// the dense layout is built on demand, bit for bit what the dense
    /// kernel stores.
    pub fn factor(&self) -> Cow<'_, Matrix> {
        if !self.structured {
            return Cow::Borrowed(&self.lu);
        }
        let n = self.dim();
        Cow::Owned(Matrix::from_fn(n, n, |i, j| self.dense_entry(i, j)))
    }

    /// Entry `(i, j)` of the factors in the dense kernel's layout, read
    /// from a structured factorization.
    fn dense_entry(&self, i: usize, j: usize) -> f64 {
        let n = self.dim();
        let w = self.lu.as_slice();
        let r = self.perm[i];
        if self.plans[0].filled[r] & bit(j) != 0 {
            w[r * n + j]
        } else if j < i {
            // The multiplier the dense kernel stores for a zero entry.
            0.0 / w[self.perm[j] * n + j]
        } else {
            0.0
        }
    }

    /// Row permutation: row `i` of the factored matrix is row
    /// `permutation()[i]` of the input.
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// Solves `A x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.dim()];
        self.solve_into(b, &mut x);
        x
    }

    /// Solves `A x = b` into the caller's buffer `x` (forward substitution
    /// writes `y = L⁻¹ P b` into `x`, back substitution overwrites it with
    /// the solution).
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `x.len()` differs from `self.dim()`.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        let n = self.dim();
        assert_eq!(b.len(), n, "lu solve length mismatch");
        assert_eq!(x.len(), n, "lu solve output length mismatch");
        if self.structured {
            if !self.solve_structured(b, x, false) {
                self.solve_structured(b, x, true);
            }
            return;
        }
        // Apply permutation, then forward solve with unit-lower L.
        for i in 0..n {
            let row = self.lu.row(i);
            let mut s = b[self.perm[i]];
            for (l, y) in row[..i].iter().zip(&x[..i]) {
                s -= l * y;
            }
            x[i] = s;
        }
        // Back solve with U.
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            let mut s = x[i];
            for (u, xk) in row[i + 1..].iter().zip(&x[i + 1..]) {
                s -= u * xk;
            }
            x[i] = s / row[i];
        }
    }

    /// Forward and back substitution on a structured factorization. A row
    /// sums over its structural entries only, unless its running sum starts
    /// at `−0.0` or `full_rows` is set: then it runs the dense kernel's full
    /// row, reading every structural zero as the value the dense kernel
    /// stores there. Returns `false` if an intermediate is non-finite, when
    /// skipping is not exact and the caller reruns with `full_rows`.
    fn solve_structured(&self, b: &[f64], x: &mut [f64], full_rows: bool) -> bool {
        let n = self.dim();
        let filled = &self.plans[0].filled;
        let mut finite = true;
        for i in 0..n {
            let r = self.perm[i];
            let row = self.lu.row(r);
            let mut s = b[r];
            if full_rows || is_neg_zero(s) {
                for (k, &y) in x[..i].iter().enumerate() {
                    s -= self.dense_entry(i, k) * y;
                }
            } else {
                let mut cols = filled[r] & !(!0 << i);
                while cols != 0 {
                    let k = cols.trailing_zeros() as usize;
                    cols &= cols - 1;
                    s -= row[k] * x[k];
                }
            }
            finite &= s.is_finite();
            x[i] = s;
        }
        for i in (0..n).rev() {
            let r = self.perm[i];
            let row = self.lu.row(r);
            let mut s = x[i];
            if full_rows || is_neg_zero(s) {
                for (k, &xk) in x.iter().enumerate().skip(i + 1) {
                    s -= self.dense_entry(i, k) * xk;
                }
            } else {
                let mut cols = filled[r] & above(i);
                while cols != 0 {
                    let k = cols.trailing_zeros() as usize;
                    cols &= cols - 1;
                    s -= row[k] * x[k];
                }
            }
            s /= row[i];
            finite &= s.is_finite();
            x[i] = s;
        }
        finite
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> f64 {
        let mut d = self.perm_sign;
        for i in 0..self.dim() {
            d *= if self.structured {
                self.lu[(self.perm[i], i)]
            } else {
                self.lu[(i, i)]
            };
        }
        d
    }
}

/// Column `j`'s bit of a row mask.
#[inline]
fn bit(j: usize) -> u64 {
    1 << j
}

/// The columns right of `j`.
#[inline]
fn above(j: usize) -> u64 {
    (!0 << j) << 1
}

#[inline]
fn is_neg_zero(v: f64) -> bool {
    v.to_bits() == (-0.0f64).to_bits()
}

/// Whether every entry of `a` outside the masks `rows` is `+0.0`.
fn outside_is_plus_zero(a: &Matrix, rows: &[u64]) -> bool {
    (0..a.rows()).all(|i| {
        let row = a.row(i);
        (0..row.len()).all(|j| rows[i] & bit(j) != 0 || row[j].to_bits() == 0)
    })
}

/// Whether the structured path can reproduce the dense kernel on an entry:
/// it must be finite and not `−0.0`.
#[inline]
fn exact_entry(v: f64) -> bool {
    v.is_finite() & !is_neg_zero(v)
}

/// The row-major indices of the entries under the masks `rows`.
fn stamped_entries(rows: &[u64]) -> impl Iterator<Item = usize> + '_ {
    let n = rows.len();
    rows.iter().enumerate().flat_map(move |(r, &mask)| {
        let mut cols = mask;
        std::iter::from_fn(move || {
            (cols != 0).then(|| {
                let j = cols.trailing_zeros() as usize;
                cols &= cols - 1;
                r * n + j
            })
        })
    })
}

/// Why a structured factorization stopped before its last step.
enum Stop {
    /// The dense rule picks another pivot (or none) at this step; the
    /// factor storage holds the state after the steps before it.
    PivotMoved(usize),
    /// A multiplier is non-finite: only the dense kernel is exact.
    NonFinite,
}

/// Whether the dense pivot rule picks `step`'s pivot at step `k` of the
/// factor storage `w` (rows by input row): the candidates before it in
/// position order strictly below it, those after it not above it, and it
/// nonzero and finite. Reads only.
fn pivot_holds(w: &[f64], n: usize, k: usize, step: &Step, cands: &[u8]) -> bool {
    let pmax = w[step.pivot_row as usize * n + k].abs();
    let (before, after) = cands.split_at(step.before as usize);
    pmax > 0.0
        && pmax < f64::INFINITY
        && before.iter().all(|&r| w[r as usize * n + k].abs() < pmax)
        && after.iter().all(|&r| w[r as usize * n + k].abs() <= pmax)
}

/// Elimination step `k` of `step` on `w`: stores the candidates'
/// multipliers and updates each row with a nonzero one over the pivot
/// row's structural span, copied to `pivot_row` first. Returns `false` if a
/// multiplier is non-finite.
fn eliminate(w: &mut [f64], k: usize, step: &Step, cands: &[u8], pivot_row: &mut [f64]) -> bool {
    let n = pivot_row.len();
    let p = step.pivot_row as usize * n;
    let span = k + 1..step.span_end as usize;
    let pivot = w[p + k];
    let u = &mut pivot_row[span.clone()];
    u.copy_from_slice(&w[p + span.start..p + span.end]);
    let mut finite = true;
    for &r in cands {
        let row = &mut w[r as usize * n..(r as usize + 1) * n];
        let m = row[k] / pivot;
        finite &= m.is_finite();
        row[k] = m;
        if m != 0.0 {
            for (t, &uj) in row[span.clone()].iter_mut().zip(&*u) {
                *t -= m * uj;
            }
        }
    }
    finite
}

/// Replays `plan` from step `from` on `w`, which holds the dense kernel's
/// state after the plan's first `from` steps.
fn replay(w: &mut [f64], plan: &Plan, from: usize, pivot_row: &mut [f64]) -> Result<(), Stop> {
    let n = pivot_row.len();
    let mut start = from
        .checked_sub(1)
        .map_or(0, |k| plan.steps[k].cands_end as usize);
    for (k, step) in plan.steps.iter().enumerate().skip(from) {
        let cands = &plan.cands[start..step.cands_end as usize];
        if !pivot_holds(w, n, k, step, cands) {
            return Err(Stop::PivotMoved(k));
        }
        if !eliminate(w, k, step, cands, pivot_row) {
            return Err(Stop::NonFinite);
        }
        start = step.cands_end as usize;
    }
    Ok(())
}

/// Copies the first `k` steps of `plans[from]` into `plans[to]`, with the
/// stamped entries they share.
fn copy_prefix(plans: &mut [Plan], from: usize, to: usize, k: usize) {
    if from == to {
        return;
    }
    let (src, dst) = if from < to {
        let (head, tail) = plans.split_at_mut(to);
        (&head[from], &mut tail[0])
    } else {
        let (head, tail) = plans.split_at_mut(from);
        (&tail[0], &mut head[to])
    };
    dst.gate.clone_from(&src.gate);
    dst.steps.clear();
    dst.steps.extend_from_slice(&src.steps[..k]);
    let cands = src.steps[..k].last().map_or(0, |s| s.cands_end as usize);
    dst.cands.clear();
    dst.cands.extend_from_slice(&src.cands[..cands]);
}

/// Factorizes by the dense pivot rule from step `from` on, visiting
/// structural candidates only, and records the pivot sequence and its
/// lists in `plan`. `w` holds the dense kernel's state after the first
/// `from` steps of `plan`, which are kept; the matrix's structure is
/// `rows`. Returns `false`, leaving `plan` empty, if the dense kernel must
/// run instead.
fn record(
    w: &mut [f64],
    rows: &[u64],
    plan: &mut Plan,
    from: usize,
    pivot_row: &mut [f64],
) -> bool {
    let n = rows.len();
    plan.stamped.clear();
    plan.steps.truncate(from);
    // The permutation and the structure after the kept steps.
    plan.filled.clear();
    plan.filled.extend_from_slice(rows);
    plan.perm.clear();
    plan.perm.extend(0..n);
    plan.perm_sign = 1.0;
    let mut start = 0;
    for (k, step) in plan.steps.iter().enumerate() {
        if step.swap as usize != k {
            plan.perm.swap(k, step.swap as usize);
            plan.perm_sign = -plan.perm_sign;
        }
        let upper = plan.filled[step.pivot_row as usize] & above(k);
        for &r in &plan.cands[start..step.cands_end as usize] {
            plan.filled[r as usize] |= upper;
        }
        start = step.cands_end as usize;
    }
    plan.cands.truncate(start);
    for k in from..n {
        // The dense pivot search, in position order over the structural
        // candidates; entries outside the structure are +0.0 and never win.
        let start = plan.cands.len();
        let (mut pmax, mut best) = (0.0, None);
        for pos in k..n {
            let r = plan.perm[pos];
            if plan.filled[r] & bit(k) != 0 {
                let v = w[r * n + k].abs();
                if v > pmax {
                    pmax = v;
                    best = Some((pos, plan.cands.len()));
                }
                plan.cands.push(r as u8);
            }
        }
        // No nonzero candidate, or a non-finite pivot: the dense kernel
        // reports it.
        let Some((pos, at)) = best.filter(|_| pmax < f64::INFINITY) else {
            return false;
        };
        plan.cands.remove(at);
        if pos != k {
            plan.perm.swap(k, pos);
            plan.perm_sign = -plan.perm_sign;
        }
        let p = plan.perm[k];
        let upper = plan.filled[p] & above(k);
        for &r in &plan.cands[start..] {
            plan.filled[r as usize] |= upper;
        }
        let step = Step {
            pivot_row: p as u8,
            swap: pos as u8,
            before: (at - start) as u8,
            span_end: (u64::BITS - upper.leading_zeros()).max(k as u32 + 1) as u8,
            cands_end: plan.cands.len() as u16,
        };
        if !eliminate(w, k, &step, &plan.cands[start..], pivot_row) {
            return false;
        }
        plan.steps.push(step);
    }
    if from == 0 {
        plan.gate.clear();
        plan.gate.extend(stamped_entries(rows).map(|e| e as u16));
    }
    plan.stamped.extend_from_slice(rows);
    true
}

/// Doolittle LU with partial pivoting on row-major `n x n` storage, in
/// place: on success `lu` holds `L` (strictly lower, unit diagonal implied)
/// and `U`, `perm` (which must enter as the identity) holds the row
/// permutation, and the permutation's sign is returned.
fn factor_in_place(lu: &mut [f64], n: usize, perm: &mut [usize]) -> Result<f64, LinalgError> {
    let mut perm_sign = 1.0;
    for k in 0..n {
        // Find pivot row: largest |value| in column k at or below row k.
        let mut p = k;
        let mut pmax = lu[k * n + k].abs();
        for i in (k + 1)..n {
            let v = lu[i * n + k].abs();
            if v > pmax {
                pmax = v;
                p = i;
            }
        }
        if pmax == 0.0 || !pmax.is_finite() {
            return Err(LinalgError::Singular { pivot: k });
        }
        if p != k {
            // Swap whole rows (both the L and U parts travel together in
            // the Doolittle scheme).
            let (top, bottom) = lu.split_at_mut(p * n);
            top[k * n..(k + 1) * n].swap_with_slice(&mut bottom[..n]);
            perm.swap(k, p);
            perm_sign = -perm_sign;
        }
        let (top, bottom) = lu.split_at_mut((k + 1) * n);
        let row_k = &top[k * n..];
        let pivot = row_k[k];
        for row_i in bottom.chunks_exact_mut(n) {
            let m = row_i[k] / pivot;
            row_i[k] = m;
            if m != 0.0 {
                for (v, &u) in row_i[k + 1..].iter_mut().zip(&row_k[k + 1..]) {
                    *v -= m * u;
                }
            }
        }
    }
    Ok(perm_sign)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_general_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let lu = Lu::new(&a).unwrap();
        let x = lu.solve(&[8.0, -11.0, -3.0]);
        // Known solution (2, 3, -1).
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = Lu::new(&a).unwrap();
        let x = lu.solve(&[3.0, 7.0]);
        assert!((x[0] - 7.0).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn determinant_with_permutation_sign() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = Lu::new(&a).unwrap();
        assert!((lu.det() + 1.0).abs() < 1e-14);

        let b = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((Lu::new(&b).unwrap().det() - 12.0).abs() < 1e-14);
    }

    #[test]
    fn rejects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(Lu::new(&a), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Lu::new(&a),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn random_round_trip() {
        // Deterministic pseudo-random matrix; verify A * solve(b) == b.
        let n = 12;
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let a = Matrix::from_fn(n, n, |i, j| next() + if i == j { 2.0 } else { 0.0 });
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = Lu::new(&a).unwrap().solve(&b);
        let back = a.matvec(&x);
        for (u, v) in b.iter().zip(&back) {
            assert!((u - v).abs() < 1e-10);
        }
    }
}
