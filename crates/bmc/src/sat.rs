//! A small CDCL SAT solver.
//!
//! Classic architecture — two watched literals, first-UIP conflict-clause
//! learning with activity-based branching (VSIDS-lite: additive bumps with
//! periodic rescale), phase saving, and Luby restarts — kept deliberately
//! compact: this solver exists to discharge the bounded equivalence queries
//! of [`crate::equiv`], offline, with no external dependencies.
//!
//! Costs follow what a query touches, not the instance size: decisions pop
//! a variable heap instead of scanning every variable, conflict analysis
//! clears only the marks it set, and all clause literals live in one arena.
//!
//! Solving is incremental: clauses may be added between [`Solver::solve`]
//! calls, and queries take assumption literals. Every query accepts a
//! conflict budget and an optional wall-clock deadline and returns
//! [`SatResult::Unknown`] when exceeded — budget exhaustion is a first-class
//! outcome the callers must surface, never an error.

use std::time::Instant;

/// A literal: variable index shifted left once, low bit = negated.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(pub u32);

impl Lit {
    pub fn pos(var: u32) -> Lit {
        Lit(var << 1)
    }

    pub fn neg(var: u32) -> Lit {
        Lit(var << 1 | 1)
    }

    pub fn var(self) -> u32 {
        self.0 >> 1
    }

    pub fn is_neg(self) -> bool {
        self.0 & 1 != 0
    }

    /// The complement literal.
    #[must_use]
    pub fn flip(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// DIMACS integer form (1-based, negative when negated).
    pub fn dimacs(self) -> i64 {
        let v = i64::from(self.var()) + 1;
        if self.is_neg() {
            -v
        } else {
            v
        }
    }

    /// Parse DIMACS integer form.
    pub fn from_dimacs(n: i64) -> Option<Lit> {
        let v = u32::try_from(n.unsigned_abs().checked_sub(1)?).ok()?;
        Some(if n < 0 { Lit::neg(v) } else { Lit::pos(v) })
    }
}

impl std::fmt::Debug for Lit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.dimacs())
    }
}

/// Result of a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SatResult {
    Sat,
    Unsat,
    /// Budget (conflicts or wall clock) exhausted before an answer.
    Unknown,
}

/// Resource budget for one [`Solver::solve`] call.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Maximum number of conflicts before giving up.
    pub max_conflicts: u64,
    /// Optional wall-clock deadline.
    pub deadline: Option<Instant>,
}

impl Budget {
    pub const UNLIMITED: Budget = Budget {
        max_conflicts: u64::MAX,
        deadline: None,
    };

    pub fn conflicts(n: u64) -> Budget {
        Budget {
            max_conflicts: n,
            deadline: None,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Assign {
    Unset,
    True,
    False,
}

/// A clause: a slice of [`Solver::lits`].
#[derive(Clone, Copy)]
struct Clause {
    start: u32,
    len: u32,
    learnt: bool,
    /// Move-to-front score for learnt-clause reduction.
    activity: f64,
}

/// Watcher entry: clause index plus the blocking literal fast path.
#[derive(Clone, Copy)]
struct Watch {
    clause: u32,
    blocker: Lit,
}

/// The solver.
pub struct Solver {
    num_vars: u32,
    clauses: Vec<Clause>,
    /// Every clause's literals, back to back in clause order.
    lits: Vec<Lit>,
    /// Indexed by `Lit.0`: clauses watching that literal.
    watches: Vec<Vec<Watch>>,
    /// Clauses from this index on have no watches yet: [`Solver::propagate`]
    /// attaches them before it reads a watch list.
    attached: usize,
    assigns: Vec<Assign>,
    /// Saved phase per variable.
    phase: Vec<bool>,
    /// Decision level per variable.
    level: Vec<u32>,
    /// Reason clause per variable (u32::MAX = decision/assumption).
    reason: Vec<u32>,
    trail: Vec<Lit>,
    /// Start of each decision level in `trail`.
    trail_lim: Vec<u32>,
    prop_head: usize,
    /// VSIDS activity per variable, plus the additive bump.
    activity: Vec<f64>,
    var_inc: f64,
    /// Binary max-heap of variables ordered by [`Solver::decides_before`].
    /// Every unassigned variable is in it; `decide` pops assigned ones
    /// lazily.
    heap: Vec<u32>,
    /// Position of each variable in `heap`, or `NOT_IN_HEAP`.
    heap_pos: Vec<u32>,
    /// Conflict-analysis marks; all false between conflicts.
    seen: Vec<bool>,
    /// Empty clause added → permanently unsat.
    unsat: bool,
    /// Statistics over the solver's lifetime.
    pub conflicts: u64,
    pub decisions: u64,
    pub propagations: u64,
    pub restarts: u64,
    /// Length of every learnt clause (including unit learnts).
    pub learnt_len: obs::Histogram,
    /// Decision level at each decision (trail depth in levels).
    pub decision_depth: obs::Histogram,
}

const NO_REASON: u32 = u32::MAX;
const NOT_IN_HEAP: u32 = u32::MAX;

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    pub fn new() -> Solver {
        Solver {
            num_vars: 0,
            clauses: Vec::new(),
            lits: Vec::new(),
            watches: Vec::new(),
            attached: 0,
            assigns: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            prop_head: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: Vec::new(),
            heap_pos: Vec::new(),
            seen: Vec::new(),
            unsat: false,
            conflicts: 0,
            decisions: 0,
            propagations: 0,
            restarts: 0,
            learnt_len: obs::Histogram::new(),
            decision_depth: obs::Histogram::new(),
        }
    }

    /// Allocate a fresh variable and return its index.
    pub fn new_var(&mut self) -> u32 {
        let v = self.num_vars;
        self.num_vars += 1;
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.assigns.push(Assign::Unset);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.heap_pos.push(NOT_IN_HEAP);
        self.seen.push(false);
        self.heap_insert(v);
        v
    }

    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Total clauses in the database (problem + surviving learnts).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    fn value(&self, l: Lit) -> Assign {
        match self.assigns[l.var() as usize] {
            Assign::Unset => Assign::Unset,
            Assign::True => {
                if l.is_neg() {
                    Assign::False
                } else {
                    Assign::True
                }
            }
            Assign::False => {
                if l.is_neg() {
                    Assign::True
                } else {
                    Assign::False
                }
            }
        }
    }

    /// Add a clause. Backtracks to the root level first, so any model from
    /// a previous [`Solver::solve`] call is invalidated. Returns `false`
    /// when the clause makes the instance unsat.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if !self.trail_lim.is_empty() {
            self.backtrack_to(0);
        }
        if self.unsat {
            return false;
        }
        // Simplify straight into the arena's tail: drop duplicate/false
        // literals, detect tautology.
        let start = self.lits.len();
        for &l in lits {
            debug_assert!(l.var() < self.num_vars, "literal for unallocated var");
            let satisfied = match self.value(l) {
                Assign::True => true, // satisfied at level 0
                Assign::False => continue,
                Assign::Unset => self.lits[start..].contains(&l.flip()), // tautology
            };
            if satisfied {
                self.lits.truncate(start);
                return true;
            }
            if !self.lits[start..].contains(&l) {
                self.lits.push(l);
            }
        }
        match self.lits.len() - start {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                let unit = self.lits.pop().expect("one simplified literal");
                self.enqueue(unit, NO_REASON);
                if self.propagate().is_some() {
                    self.unsat = true;
                    false
                } else {
                    true
                }
            }
            _ => {
                self.push_clause(start, false);
                true
            }
        }
    }

    /// Add the arena's literals from `start` on as a new clause. It gets
    /// its watches from the next [`Solver::propagate`] with work to do.
    fn push_clause(&mut self, start: usize, learnt: bool) -> u32 {
        let idx = self.clauses.len() as u32;
        self.clauses.push(Clause {
            start: u32::try_from(start).expect("clause arena exceeds u32 literals"),
            len: (self.lits.len() - start) as u32,
            learnt,
            activity: 0.0,
        });
        idx
    }

    /// The literals of clause `ci`.
    fn clause_lits(&self, ci: usize) -> &[Lit] {
        let c = self.clauses[ci];
        &self.lits[c.start as usize..(c.start + c.len) as usize]
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert_eq!(self.value(l), Assign::Unset);
        let v = l.var() as usize;
        self.assigns[v] = if l.is_neg() {
            Assign::False
        } else {
            Assign::True
        };
        self.phase[v] = !l.is_neg();
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause index if any.
    ///
    /// First watches the first two literals of every clause added since,
    /// in clause order: the lists come out exactly as if each clause had
    /// been watched when it was added, and a query that never propagates
    /// never builds them.
    fn propagate(&mut self) -> Option<u32> {
        if self.prop_head < self.trail.len() {
            for i in self.attached..self.clauses.len() {
                let c = self.clauses[i];
                let (l0, l1) = (self.lits[c.start as usize], self.lits[c.start as usize + 1]);
                self.watches[l0.flip().0 as usize].push(Watch {
                    clause: i as u32,
                    blocker: l1,
                });
                self.watches[l1.flip().0 as usize].push(Watch {
                    clause: i as u32,
                    blocker: l0,
                });
            }
            self.attached = self.clauses.len();
        }
        while self.prop_head < self.trail.len() {
            debug_assert_eq!(self.attached, self.clauses.len(), "unwatched clause");
            let l = self.trail[self.prop_head];
            self.prop_head += 1;
            self.propagations += 1;
            // All clauses watching ¬l (stored under l) must find new homes.
            let mut ws = std::mem::take(&mut self.watches[l.0 as usize]);
            let mut i = 0;
            while i < ws.len() {
                let w = ws[i];
                if self.value(w.blocker) == Assign::True {
                    i += 1;
                    continue;
                }
                let c = self.clauses[w.clause as usize];
                let (start, end) = (c.start as usize, (c.start + c.len) as usize);
                // Normalize: watched literal we're processing at slot 1.
                let false_lit = l.flip();
                if self.lits[start] == false_lit {
                    self.lits.swap(start, start + 1);
                }
                debug_assert_eq!(self.lits[start + 1], false_lit);
                let first = self.lits[start];
                if first != w.blocker && self.value(first) == Assign::True {
                    ws[i] = Watch {
                        clause: w.clause,
                        blocker: first,
                    };
                    i += 1;
                    continue;
                }
                // Look for a non-false literal to watch instead.
                let mut moved = false;
                for k in start + 2..end {
                    if self.value(self.lits[k]) != Assign::False {
                        self.lits.swap(start + 1, k);
                        let nw = self.lits[start + 1];
                        self.watches[nw.flip().0 as usize].push(Watch {
                            clause: w.clause,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Unit or conflicting.
                if self.value(first) == Assign::False {
                    self.watches[l.0 as usize] = ws;
                    // Re-append anything we haven't processed is not needed:
                    // ws still contains all remaining watches.
                    return Some(w.clause);
                }
                self.enqueue(first, w.clause);
                i += 1;
            }
            self.watches[l.0 as usize] = ws;
        }
        None
    }

    fn bump_var(&mut self, v: u32) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            // Scaling can merge distinct activities into ties, which the
            // heap must then order by index.
            for i in (0..self.heap.len() / 2).rev() {
                self.sift_down(i);
            }
        } else if self.heap_pos[v as usize] != NOT_IN_HEAP {
            self.sift_up(self.heap_pos[v as usize] as usize);
        }
    }

    // ------------------------------------------------------ decision heap

    /// Decision order: higher activity first, lower index among ties —
    /// the variable a linear scan over all variables would pick.
    fn decides_before(&self, a: u32, b: u32) -> bool {
        let (x, y) = (self.activity[a as usize], self.activity[b as usize]);
        x > y || (x == y && a < b)
    }

    fn heap_place(&mut self, i: usize, v: u32) {
        self.heap[i] = v;
        self.heap_pos[v as usize] = i as u32;
    }

    fn sift_up(&mut self, mut i: usize) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !self.decides_before(v, p) {
                break;
            }
            self.heap_place(i, p);
            i = parent;
        }
        self.heap_place(i, v);
    }

    fn sift_down(&mut self, mut i: usize) {
        let v = self.heap[i];
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && self.decides_before(self.heap[right], self.heap[left]) {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !self.decides_before(c, v) {
                break;
            }
            self.heap_place(i, c);
            i = child;
        }
        self.heap_place(i, v);
    }

    fn heap_insert(&mut self, v: u32) {
        if self.heap_pos[v as usize] != NOT_IN_HEAP {
            return;
        }
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1);
    }

    fn heap_pop(&mut self) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty heap");
        self.heap_pos[top as usize] = NOT_IN_HEAP;
        if !self.heap.is_empty() {
            self.heap_place(0, last);
            self.sift_down(0);
        }
        Some(top)
    }

    /// First-UIP learning. Returns (learnt clause, backtrack level); the
    /// asserting literal is first.
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot for the UIP
        let mut counter = 0u32;
        let mut confl = confl as usize;
        let mut trail_idx = self.trail.len();
        let cur_level = self.trail_lim.len() as u32;
        #[allow(unused_assignments)]
        let mut uip = Lit(0);
        loop {
            self.clauses[confl].activity += 1.0;
            let Clause { start, len, .. } = self.clauses[confl];
            for k in start as usize..(start + len) as usize {
                let q = self.lits[k];
                let v = q.var() as usize;
                if self.seen[v] || self.level[v] == 0 {
                    continue;
                }
                // Skip the literal currently being resolved (it is assigned
                // true; every other clause literal is false).
                if self.value(q) == Assign::True {
                    continue;
                }
                self.seen[v] = true;
                self.bump_var(q.var());
                if self.level[v] == cur_level {
                    counter += 1;
                } else {
                    learnt.push(q);
                }
            }
            // Pick the next current-level literal off the trail.
            loop {
                trail_idx -= 1;
                if self.seen[self.trail[trail_idx].var() as usize] {
                    break;
                }
            }
            uip = self.trail[trail_idx];
            self.seen[uip.var() as usize] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            confl = self.reason[uip.var() as usize] as usize;
        }
        learnt[0] = uip.flip();
        // Every current-level mark was cleared as its literal was resolved;
        // the marks still set are exactly the rest of the learnt clause.
        for l in &learnt[1..] {
            self.seen[l.var() as usize] = false;
        }
        // Backtrack level: highest level among the other literals.
        let bt = learnt[1..]
            .iter()
            .map(|l| self.level[l.var() as usize])
            .max()
            .unwrap_or(0);
        // Move a literal of the backtrack level into slot 1 so the watches
        // are on the two highest levels.
        if learnt.len() > 1 {
            let mut mi = 1;
            for k in 2..learnt.len() {
                if self.level[learnt[k].var() as usize] > self.level[learnt[mi].var() as usize] {
                    mi = k;
                }
            }
            learnt.swap(1, mi);
        }
        (learnt, bt)
    }

    fn backtrack_to(&mut self, level: u32) {
        while self.trail_lim.len() as u32 > level {
            let lim = self.trail_lim.pop().unwrap() as usize;
            for k in lim..self.trail.len() {
                let v = self.trail[k].var();
                self.assigns[v as usize] = Assign::Unset;
                self.reason[v as usize] = NO_REASON;
                self.heap_insert(v);
            }
            self.trail.truncate(lim);
        }
        self.prop_head = self.prop_head.min(self.trail.len());
    }

    /// Drop the least active half of the learnt clauses. Drops every watch
    /// and forces full re-propagation of the trail, so it must only run at
    /// decision level 0 (we call it on restart).
    fn reduce_learnts(&mut self) {
        debug_assert!(self.trail_lim.is_empty());
        let mut learnt_idx: Vec<usize> = (0..self.clauses.len())
            .filter(|&i| self.clauses[i].learnt && self.clauses[i].len > 2)
            .collect();
        if learnt_idx.len() < 64 {
            return;
        }
        // Locked clauses (reason of a current assignment) must survive.
        let mut locked = vec![false; self.clauses.len()];
        for l in &self.trail {
            let r = self.reason[l.var() as usize];
            if r != NO_REASON {
                locked[r as usize] = true;
            }
        }
        learnt_idx.sort_by(|&a, &b| {
            self.clauses[a]
                .activity
                .partial_cmp(&self.clauses[b].activity)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut drop = vec![false; self.clauses.len()];
        let mut dropped = 0;
        for &i in &learnt_idx[..learnt_idx.len() / 2] {
            if !locked[i] {
                drop[i] = true;
                dropped += 1;
            }
        }
        if dropped == 0 {
            return;
        }
        // Compact the clause database and its arena in place (clauses sit
        // in the arena in index order, so every move is towards the front)
        // and remap indices.
        let mut remap = vec![NO_REASON; self.clauses.len()];
        let (mut kept, mut arena_len) = (0, 0);
        for i in 0..self.clauses.len() {
            if drop[i] {
                continue;
            }
            let mut c = self.clauses[i];
            let start = c.start as usize;
            self.lits
                .copy_within(start..start + c.len as usize, arena_len);
            c.start = arena_len as u32;
            arena_len += c.len as usize;
            remap[i] = kept as u32;
            self.clauses[kept] = c;
            kept += 1;
        }
        self.clauses.truncate(kept);
        self.lits.truncate(arena_len);
        for r in &mut self.reason {
            if *r != NO_REASON {
                *r = remap[*r as usize];
                debug_assert_ne!(*r, NO_REASON, "dropped a locked clause");
            }
        }
        for w in &mut self.watches {
            w.clear();
        }
        self.attached = 0;
        // The next propagation re-attaches every clause, and the new watches
        // may sit on literals that are already false; re-propagating the
        // whole trail restores the watch invariant.
        self.prop_head = 0;
    }

    /// Luby restart sequence (unit 256 conflicts).
    fn luby(i: u64) -> u64 {
        // Find the finite subsequence containing i and its position.
        let (mut k, mut size) = (1u64, 1u64);
        while size < i + 1 {
            k += 1;
            size = 2 * size + 1;
        }
        let mut i = i;
        while size - 1 != i {
            size = (size - 1) / 2;
            k -= 1;
            i %= size;
        }
        1u64 << (k - 1)
    }

    /// Decide: pick the unassigned variable with highest activity (lowest
    /// index among ties), assign its saved phase.
    fn decide(&mut self) -> bool {
        let pick = loop {
            match self.heap_pop() {
                Some(v) if self.assigns[v as usize] != Assign::Unset => {}
                other => break other,
            }
        };
        #[cfg(test)]
        assert_eq!(pick, self.scan_decision(), "heap and linear scan disagree");
        let Some(v) = pick else {
            return false;
        };
        self.decisions += 1;
        self.decision_depth.record(self.trail_lim.len() as u64);
        self.trail_lim.push(self.trail.len() as u32);
        let l = if self.phase[v as usize] {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        };
        self.enqueue(l, NO_REASON);
        true
    }

    /// The linear scan the decision heap replaces, kept as the reference
    /// every test-build decision is checked against.
    #[cfg(test)]
    fn scan_decision(&self) -> Option<u32> {
        let mut best: Option<u32> = None;
        for v in 0..self.num_vars {
            if self.assigns[v as usize] == Assign::Unset {
                match best {
                    Some(b) if self.activity[b as usize] >= self.activity[v as usize] => {}
                    _ => best = Some(v),
                }
            }
        }
        best
    }

    /// Solve under assumptions. The model (for Sat) is readable via
    /// [`Solver::model_value`] until the next call that modifies the solver.
    pub fn solve(&mut self, assumptions: &[Lit], budget: Budget) -> SatResult {
        if self.unsat {
            return SatResult::Unsat;
        }
        self.backtrack_to(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return SatResult::Unsat;
        }

        let start_conflicts = self.conflicts;
        let mut restart_round = 0u64;
        let mut conflicts_this_round = 0u64;
        let mut restart_limit = Self::luby(0) * 256;

        'outer: loop {
            // An already-expired deadline must yield Unknown even for
            // queries that would never conflict (the in-conflict check
            // below only fires every 512 conflicts).
            if let Some(d) = budget.deadline {
                if Instant::now() >= d {
                    self.backtrack_to(0);
                    return SatResult::Unknown;
                }
            }
            // (Re-)apply assumptions above the root level.
            self.backtrack_to(0);
            for &a in assumptions {
                match self.value(a) {
                    Assign::True => continue,
                    Assign::False => return SatResult::Unsat,
                    Assign::Unset => {
                        self.trail_lim.push(self.trail.len() as u32);
                        self.enqueue(a, NO_REASON);
                        if self.propagate().is_some() {
                            return SatResult::Unsat;
                        }
                    }
                }
            }
            let assumption_level = self.trail_lim.len() as u32;

            loop {
                if let Some(confl) = self.propagate() {
                    self.conflicts += 1;
                    conflicts_this_round += 1;
                    if self.trail_lim.len() as u32 <= assumption_level {
                        // Conflict at (or below) the assumption level: the
                        // assumptions themselves are inconsistent.
                        return SatResult::Unsat;
                    }
                    let (learnt, bt) = self.analyze(confl);
                    self.learnt_len.record(learnt.len() as u64);
                    self.var_inc *= 1.0 / 0.95;
                    self.backtrack_to(bt.max(assumption_level));
                    if learnt.len() == 1 {
                        self.backtrack_to(assumption_level);
                        if self.value(learnt[0]) == Assign::False {
                            return SatResult::Unsat;
                        }
                        if self.value(learnt[0]) == Assign::Unset {
                            self.enqueue(learnt[0], NO_REASON);
                        }
                    } else {
                        let start = self.lits.len();
                        self.lits.extend_from_slice(&learnt);
                        let ci = self.push_clause(start, true);
                        if self.value(learnt[0]) == Assign::Unset {
                            self.enqueue(learnt[0], ci);
                        }
                    }
                    if self.conflicts - start_conflicts >= budget.max_conflicts {
                        self.backtrack_to(0);
                        return SatResult::Unknown;
                    }
                    if self.conflicts.is_multiple_of(512) {
                        if let Some(d) = budget.deadline {
                            if Instant::now() >= d {
                                self.backtrack_to(0);
                                return SatResult::Unknown;
                            }
                        }
                    }
                    if conflicts_this_round >= restart_limit {
                        self.restarts += 1;
                        restart_round += 1;
                        conflicts_this_round = 0;
                        restart_limit = Self::luby(restart_round) * 256;
                        self.backtrack_to(0);
                        self.reduce_learnts();
                        continue 'outer;
                    }
                } else if !self.decide() {
                    return SatResult::Sat;
                }
            }
        }
    }

    /// Value of a literal in the current model (valid after Sat).
    pub fn model_value(&self, l: Lit) -> bool {
        match self.value(l) {
            Assign::True => true,
            // Unconstrained variables default to false.
            Assign::False | Assign::Unset => false,
        }
    }

    // ----------------------------------------------------------- DIMACS

    /// Serialize the problem clauses (not learnt ones) as DIMACS CNF.
    pub fn to_dimacs(&self) -> String {
        let n = self
            .clauses
            .iter()
            .filter(|c| !c.learnt)
            .count()
            // Level-0 units live on the trail, not in the clause list.
            + self.trail_level0_len();
        let mut out = format!("p cnf {} {n}\n", self.num_vars);
        for i in 0..self.trail_level0_len() {
            out.push_str(&format!("{} 0\n", self.trail[i].dimacs()));
        }
        for ci in (0..self.clauses.len()).filter(|&ci| !self.clauses[ci].learnt) {
            for &l in self.clause_lits(ci) {
                out.push_str(&format!("{} ", l.dimacs()));
            }
            out.push_str("0\n");
        }
        out
    }

    fn trail_level0_len(&self) -> usize {
        match self.trail_lim.first() {
            Some(&lim) => lim as usize,
            None => self.trail.len(),
        }
    }

    /// Parse DIMACS CNF into a fresh solver.
    ///
    /// # Errors
    /// Returns a description of the first malformed line.
    pub fn from_dimacs(text: &str) -> Result<Solver, String> {
        let mut solver = Solver::new();
        let mut declared_vars: Option<u32> = None;
        let mut clause: Vec<Lit> = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            if let Some(rest) = line.strip_prefix("p cnf") {
                let mut it = rest.split_whitespace();
                let nv: u32 = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| format!("line {}: bad p header", lineno + 1))?;
                declared_vars = Some(nv);
                while solver.num_vars < nv {
                    solver.new_var();
                }
                continue;
            }
            for tok in line.split_whitespace() {
                let n: i64 = tok
                    .parse()
                    .map_err(|_| format!("line {}: bad literal '{tok}'", lineno + 1))?;
                if n == 0 {
                    solver.add_clause(&clause);
                    clause.clear();
                    continue;
                }
                let l = Lit::from_dimacs(n)
                    .ok_or_else(|| format!("line {}: bad literal '{tok}'", lineno + 1))?;
                if l.var() >= solver.num_vars {
                    if declared_vars.is_some_and(|nv| l.var() >= nv) {
                        return Err(format!(
                            "line {}: variable {} beyond declared count",
                            lineno + 1,
                            l.var() + 1
                        ));
                    }
                    while solver.num_vars <= l.var() {
                        solver.new_var();
                    }
                }
                clause.push(l);
            }
        }
        if !clause.is_empty() {
            return Err("unterminated clause at end of input".into());
        }
        Ok(solver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(n: i64) -> Lit {
        Lit::from_dimacs(n).unwrap()
    }

    fn solver_with(num_vars: u32, clauses: &[&[i64]]) -> Solver {
        let mut s = Solver::new();
        for _ in 0..num_vars {
            s.new_var();
        }
        for c in clauses {
            let lits: Vec<Lit> = c.iter().map(|&n| lit(n)).collect();
            s.add_clause(&lits);
        }
        s
    }

    #[test]
    fn golden_sat_instance() {
        // (1 ∨ 2) ∧ (¬1 ∨ 3) ∧ (¬2 ∨ ¬3) ∧ (1 ∨ 3)
        let mut s = solver_with(3, &[&[1, 2], &[-1, 3], &[-2, -3], &[1, 3]]);
        assert_eq!(s.solve(&[], Budget::UNLIMITED), SatResult::Sat);
        // Model must actually satisfy every clause.
        for c in [[1i64, 2], [-1, 3], [-2, -3], [1, 3]] {
            assert!(c.iter().any(|&n| s.model_value(lit(n))), "clause {c:?}");
        }
    }

    #[test]
    fn golden_unsat_instance() {
        // All four sign combinations over two variables: classic UNSAT core.
        let mut s = solver_with(2, &[&[1, 2], &[1, -2], &[-1, 2], &[-1, -2]]);
        assert_eq!(s.solve(&[], Budget::UNLIMITED), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p_{i,h}: pigeon i in hole h. Vars 1..=6 as (i,h) row-major.
        let p = |i: i64, h: i64| i * 2 + h + 1; // i in 0..3, h in 0..2
        let mut clauses: Vec<Vec<i64>> = Vec::new();
        for i in 0..3 {
            clauses.push(vec![p(i, 0), p(i, 1)]);
        }
        for h in 0..2 {
            for a in 0..3 {
                for b in (a + 1)..3 {
                    clauses.push(vec![-p(a, h), -p(b, h)]);
                }
            }
        }
        let refs: Vec<&[i64]> = clauses.iter().map(Vec::as_slice).collect();
        let mut s = solver_with(6, &refs);
        assert_eq!(s.solve(&[], Budget::UNLIMITED), SatResult::Unsat);
    }

    #[test]
    fn assumptions_flip_outcomes_incrementally() {
        let mut s = solver_with(3, &[&[-1, 2], &[-2, 3]]);
        assert_eq!(
            s.solve(&[lit(1), lit(-3)], Budget::UNLIMITED),
            SatResult::Unsat
        );
        assert_eq!(s.solve(&[lit(1)], Budget::UNLIMITED), SatResult::Sat);
        assert!(s.model_value(lit(3)), "1 → 2 → 3 must propagate");
        // Adding a clause between queries must be honored.
        s.add_clause(&[lit(-1)]);
        assert_eq!(s.solve(&[lit(1)], Budget::UNLIMITED), SatResult::Unsat);
        assert_eq!(s.solve(&[], Budget::UNLIMITED), SatResult::Sat);
    }

    /// Pigeonhole `holes + 1 → holes`: unsat, and from 5→4 on hard enough
    /// to need real search.
    fn pigeonhole(holes: i64) -> Solver {
        let pigeons = holes + 1;
        let p = |i: i64, h: i64| i * holes + h + 1;
        let mut s = Solver::new();
        for _ in 0..pigeons * holes {
            s.new_var();
        }
        for i in 0..pigeons {
            let c: Vec<Lit> = (0..holes).map(|h| lit(p(i, h))).collect();
            s.add_clause(&c);
        }
        for h in 0..holes {
            for a in 0..pigeons {
                for b in (a + 1)..pigeons {
                    s.add_clause(&[lit(-p(a, h)), lit(-p(b, h))]);
                }
            }
        }
        s
    }

    #[test]
    fn conflict_budget_returns_unknown() {
        let mut s = pigeonhole(4);
        assert_eq!(s.solve(&[], Budget::conflicts(3)), SatResult::Unknown);
        // And with a real budget it finishes (pigeonhole 5→4 is small).
        assert_eq!(s.solve(&[], Budget::UNLIMITED), SatResult::Unsat);
    }

    #[test]
    fn dimacs_round_trip_preserves_semantics() {
        let mut s = solver_with(4, &[&[1, 2], &[-1, 3], &[-3, -2], &[2, 4], &[-4, 1]]);
        let text = s.to_dimacs();
        assert!(text.starts_with("p cnf 4 5"), "{text}");
        let mut s2 = Solver::from_dimacs(&text).expect("parse");
        let r1 = s.solve(&[], Budget::UNLIMITED);
        let r2 = s2.solve(&[], Budget::UNLIMITED);
        assert_eq!(r1, r2);
        // Round-trip again: output of parse prints back to the same clause
        // set. Literal order within a clause is not significant (solving
        // normalizes watched positions), so compare sorted sets.
        let text2 = s2.to_dimacs();
        let norm = |t: &str| {
            let mut lines: Vec<Vec<i64>> = t
                .lines()
                .filter(|l| !l.starts_with('p'))
                .map(|l| {
                    let mut c: Vec<i64> = l
                        .split_whitespace()
                        .map(|w| w.parse().unwrap())
                        .filter(|&x| x != 0)
                        .collect();
                    c.sort_unstable();
                    c
                })
                .collect();
            lines.sort_unstable();
            lines
        };
        assert_eq!(norm(&text), norm(&text2));
    }

    #[test]
    fn dimacs_rejects_malformed_input() {
        assert!(Solver::from_dimacs("p cnf x 1\n1 0\n").is_err());
        assert!(Solver::from_dimacs("p cnf 2 1\n1 banana 0\n").is_err());
        assert!(
            Solver::from_dimacs("p cnf 2 1\n1 2\n").is_err(),
            "unterminated"
        );
        assert!(
            Solver::from_dimacs("p cnf 1 1\n5 0\n").is_err(),
            "var beyond p"
        );
    }

    /// SplitMix64, the seeded source of the random instances below.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        /// A random DIMACS literal over variables `1..=num_vars`.
        fn lit(&mut self, num_vars: u64) -> i64 {
            let v = self.below(num_vars) as i64 + 1;
            if self.below(2) == 0 {
                v
            } else {
                -v
            }
        }
    }

    /// Whether any assignment of `num_vars` variables satisfies every
    /// clause and every assumption, by enumeration.
    fn brute_force_sat(num_vars: u64, clauses: &[Vec<i64>], assumptions: &[i64]) -> bool {
        (0..1u64 << num_vars).any(|m| {
            let holds = |n: i64| (m >> (n.unsigned_abs() - 1) & 1 == 1) == (n > 0);
            clauses.iter().all(|c| c.iter().any(|&n| holds(n)))
                && assumptions.iter().all(|&n| holds(n))
        })
    }

    /// Random CNFs with clauses added and assumptions passed between
    /// incremental solves: every verdict matches enumeration, and every model
    /// satisfies every clause and assumption. Test builds also check each
    /// decision against the linear scan (see `decide`).
    #[test]
    fn random_cnfs_match_brute_force() {
        let mut rng = Rng(20_261_017);
        let (mut sat, mut unsat) = (0, 0);
        for _ in 0..500 {
            let num_vars = 3 + rng.below(10);
            let mut s = Solver::new();
            for _ in 0..num_vars {
                s.new_var();
            }
            let mut clauses: Vec<Vec<i64>> = Vec::new();
            for round in 0..3 {
                // A first batch near the 3-SAT threshold makes the solver
                // search and learn; later batches tighten it incrementally.
                let batch = if round == 0 {
                    3 * num_vars + rng.below(2 * num_vars)
                } else {
                    1 + rng.below(num_vars / 2)
                };
                for _ in 0..batch {
                    let width = if rng.below(16) == 0 {
                        1 + rng.below(2)
                    } else {
                        3 + rng.below(2)
                    };
                    let c: Vec<i64> = (0..width).map(|_| rng.lit(num_vars)).collect();
                    s.add_clause(&c.iter().map(|&n| lit(n)).collect::<Vec<_>>());
                    clauses.push(c);
                }
                let assumptions: Vec<i64> = (0..rng.below(4)).map(|_| rng.lit(num_vars)).collect();
                let assumed: Vec<Lit> = assumptions.iter().map(|&n| lit(n)).collect();
                let got = s.solve(&assumed, Budget::UNLIMITED);
                let want = brute_force_sat(num_vars, &clauses, &assumptions);
                assert_eq!(
                    got,
                    if want {
                        SatResult::Sat
                    } else {
                        SatResult::Unsat
                    }
                );
                if got == SatResult::Sat {
                    sat += 1;
                    for c in &clauses {
                        assert!(c.iter().any(|&n| s.model_value(lit(n))), "clause {c:?}");
                    }
                    for &n in &assumptions {
                        assert!(s.model_value(lit(n)), "assumption {n}");
                    }
                } else {
                    unsat += 1;
                }
            }
        }
        assert!(
            sat > 100 && unsat > 100,
            "{sat} sat / {unsat} unsat queries"
        );
    }

    /// Starting just below the rescale threshold, the first conflicts scale
    /// every activity by 1e-100 and rebuild the decision heap; every later
    /// decision must still match the linear scan.
    #[test]
    fn activity_rescale_keeps_heap_decisions_exact() {
        let mut s = pigeonhole(4);
        s.var_inc = 0.99e100;
        assert_eq!(s.solve(&[], Budget::UNLIMITED), SatResult::Unsat);
        assert!(s.decisions > 0);
        assert!(s.var_inc < 1e50, "activities were never rescaled");
    }

    /// A rescale can underflow distinct small activities to the same value;
    /// the rebuilt heap must then break the new tie by index, as the scan
    /// does.
    #[test]
    fn rescale_ties_are_broken_by_index() {
        let mut s = solver_with(6, &[]);
        s.var_inc = 1e-250;
        s.bump_var(1); // var 1 now ranks above var 0 ...
        s.var_inc = 0.99e100;
        s.bump_var(3);
        s.bump_var(3); // ... until this rescale flushes its activity to 0.
        assert_eq!(s.activity[1], 0.0);
        while s.decide() {}
        assert_eq!(s.decisions, 6);
    }

    /// A query whose assumption is already false at the root returns
    /// without a propagation, so it never builds the watch index; the next
    /// query that propagates watches every clause.
    #[test]
    fn root_false_assumption_attaches_no_watch() {
        let mut s = solver_with(4, &[&[-1], &[1, 2, 3], &[-2, 3, 4], &[-3, -4, 2]]);
        let propagations = s.propagations;
        assert_eq!(s.solve(&[lit(1)], Budget::UNLIMITED), SatResult::Unsat);
        assert_eq!(s.propagations, propagations);
        assert_eq!(s.attached, 0);
        assert!(s.watches.iter().all(Vec::is_empty));
        assert_eq!(s.solve(&[lit(-3)], Budget::UNLIMITED), SatResult::Sat);
        assert_eq!(s.attached, s.num_clauses());
    }

    /// Pigeonhole 7→6 needs enough conflicts to restart and drop learnt
    /// clauses. Every surviving clause must be watched again after the
    /// drop, or the search misses the refutation.
    #[test]
    fn learnt_reduction_rewatches_every_clause() {
        let mut s = pigeonhole(6);
        let problem = s.num_clauses();
        assert_eq!(s.solve(&[], Budget::UNLIMITED), SatResult::Unsat);
        // Learnt clauses of two or more literals entered the database; fewer
        // are left, so a reduction dropped some.
        let learnt = s.learnt_len.count() - s.learnt_len.bucket_count(1);
        assert!(
            s.num_clauses() - problem < learnt as usize,
            "nothing dropped"
        );
    }

    /// Clauses, units among them, added one at a time between queries under
    /// assumptions. A clause added while a query's trail still stands must
    /// be watched before the next propagation, so every verdict matches
    /// enumeration and every model satisfies every clause and assumption.
    #[test]
    fn interleaved_adds_and_queries_match_brute_force() {
        let mut rng = Rng(20_261_018);
        let (mut sat, mut unsat) = (0, 0);
        for _ in 0..300 {
            let num_vars = 3 + rng.below(8);
            let mut s = Solver::new();
            for _ in 0..num_vars {
                s.new_var();
            }
            let mut clauses: Vec<Vec<i64>> = Vec::new();
            for _ in 0..4 * num_vars {
                let width = match rng.below(8) {
                    0 => 1,
                    1 => 2,
                    _ => 3,
                };
                let c: Vec<i64> = (0..width).map(|_| rng.lit(num_vars)).collect();
                s.add_clause(&c.iter().map(|&n| lit(n)).collect::<Vec<_>>());
                clauses.push(c);
                if rng.below(3) != 0 {
                    continue;
                }
                let assumptions: Vec<i64> = (0..rng.below(4)).map(|_| rng.lit(num_vars)).collect();
                let assumed: Vec<Lit> = assumptions.iter().map(|&n| lit(n)).collect();
                let got = s.solve(&assumed, Budget::UNLIMITED);
                let want = brute_force_sat(num_vars, &clauses, &assumptions);
                assert_eq!(
                    got == SatResult::Sat,
                    want,
                    "{clauses:?} under {assumptions:?}"
                );
                if got == SatResult::Sat {
                    sat += 1;
                    for c in &clauses {
                        assert!(c.iter().any(|&n| s.model_value(lit(n))), "clause {c:?}");
                    }
                    for &n in &assumptions {
                        assert!(s.model_value(lit(n)), "assumption {n}");
                    }
                } else {
                    unsat += 1;
                }
            }
        }
        assert!(
            sat > 200 && unsat > 200,
            "{sat} sat / {unsat} unsat queries"
        );
    }

    #[test]
    fn xor_chain_forces_unique_model() {
        // x1 ⊕ x2 = 1, x2 ⊕ x3 = 1, x1 = 1  ⇒  x2 = 0, x3 = 1.
        let mut s = solver_with(3, &[&[1, 2], &[-1, -2], &[2, 3], &[-2, -3], &[1]]);
        assert_eq!(s.solve(&[], Budget::UNLIMITED), SatResult::Sat);
        assert!(s.model_value(lit(1)));
        assert!(!s.model_value(lit(2)));
        assert!(s.model_value(lit(3)));
    }
}
