//! General path profiling (the paper's §2.2 and §3.1).
//!
//! A *general path* is any contiguous sequence of basic blocks containing at
//! most `depth` conditional or multiway branches (the paper uses 15;
//! unconditional jumps do not count). Profiling observes a sliding window of
//! the dynamic block trace: at every block-entry event, the *maximal* window
//! ending at that event is counted once.
//!
//! Because every trace position ends exactly one maximal window, the
//! frequency of an arbitrary sequence `t` (within the depth bound) is the
//! sum of the counts of all maximal windows having `t` as a suffix. Windows
//! are stored in a trie keyed by the *reversed* block sequence, which turns
//! that suffix-sum into a subtree sum. While profiling, the trie is one
//! arena of parent-linked nodes with the counts in a parallel array.
//! Freezing turns the counts into subtree sums in place and groups each
//! node's children into one sorted run of a flat array (a counting sort on
//! the parent links), so a query step scans contiguous memory. Neither step
//! allocates per node.
//!
//! A live window *is* its trie node: an activation holds one node id and
//! nothing else. The paper's two efficiency observations are implemented
//! directly:
//!
//! 1. *"The number of successors to a path is small … the only possible next
//!    path will be either BCDX or BCDY"* — a lazily populated memo maps
//!    `(window node, next block)` to the successor window node, so a block
//!    event that repeats a known transition costs one probe and one counter
//!    bump.
//! 2. *"We do not expect to execute all possible paths … lazily explore the
//!    space of possible paths"* — trie nodes are created only when their
//!    path is first observed. A memo miss does not re-walk the window from
//!    the root: the successor of `W` is built from the successor of `W`'s
//!    trie parent (`W` minus its oldest block), found through per-node
//!    forward-extension lists, so a miss costs one lookup plus the nodes it
//!    creates.

use pps_ir::{BlockId, ProcId, Program, TraceSink};
use std::collections::HashMap;

/// The paper's path-length limit: up to 15 conditional or multiway branches.
pub const DEFAULT_PATH_DEPTH: usize = 15;

type NodeId = u32;
const ROOT: NodeId = 0;
/// Null link: an empty forward-extension list.
const NONE: u32 = u32::MAX;

/// One trie node. The trie is keyed by reversed block sequences: the node
/// for path `b1 … bk` is reached from the root via `bk, bk-1, …, b1`, so its
/// label is the path's *oldest* block and its parent is the path minus that
/// block. A live trie needs no child links: the window walk moves only
/// toward the root and along forward extensions.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// The path's oldest block (the root's label is unused).
    block: BlockId,
    parent: NodeId,
    /// Counted branches among *all* blocks of the node's path.
    branches: u32,
    /// Head of the node's forward-extension list (`ProcTable::exts`).
    ext_head: u32,
}

/// The trie arena plus its per-node maximal-window counts. Children always
/// have larger ids than their parents.
#[derive(Debug)]
struct Trie {
    nodes: Vec<Node>,
    /// `counts[n]` = times node `n`'s path occurred as a maximal window.
    counts: Vec<u64>,
}

impl Trie {
    fn new() -> Self {
        let root = Node { block: BlockId::new(0), parent: ROOT, branches: 0, ext_head: NONE };
        Trie { nodes: vec![root], counts: vec![0] }
    }

    /// Adds a child of `parent` labelled `block`, whose path holds
    /// `branches` counted branches. Callers know the child is new.
    fn add_child(&mut self, parent: NodeId, block: BlockId, branches: u32) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(Node { block, parent, branches, ext_head: NONE });
        self.counts.push(0);
        id
    }
}

/// Open-addressing memo for the paper's successor-path pointers:
/// `(window node, entered block)` packed into a `u64` key, Fibonacci-hashed,
/// linear probing. This sits on the per-block-event hot path; a `HashMap`
/// here (SipHash per event) dominated whole-pipeline profiling cost.
#[derive(Debug, Default)]
struct TransCache {
    /// Packed keys; `u64::MAX` marks an empty slot.
    keys: Vec<u64>,
    vals: Vec<NodeId>,
    len: usize,
}

const EMPTY_KEY: u64 = u64::MAX;

impl TransCache {
    #[inline]
    fn pack(node: NodeId, block: BlockId) -> u64 {
        (u64::from(node) << 32) | u64::from(block.index() as u32)
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        // Fibonacci hashing: multiply by 2^64/φ and keep the top bits.
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h >> 32) as usize & (self.keys.len() - 1)
    }

    #[inline]
    fn get(&self, node: NodeId, block: BlockId) -> Option<NodeId> {
        if self.keys.is_empty() {
            return None;
        }
        let key = Self::pack(node, block);
        let mask = self.keys.len() - 1;
        let mut i = self.slot_of(key);
        loop {
            match self.keys[i] {
                k if k == key => return Some(self.vals[i]),
                EMPTY_KEY => return None,
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Inserts a key known to be absent (callers probe with `get` first).
    fn insert(&mut self, node: NodeId, block: BlockId, val: NodeId) {
        if self.len * 4 >= self.keys.len() * 3 {
            self.grow();
        }
        let key = Self::pack(node, block);
        debug_assert_ne!(key, EMPTY_KEY);
        let mask = self.keys.len() - 1;
        let mut i = self.slot_of(key);
        while self.keys[i] != EMPTY_KEY {
            i = (i + 1) & mask;
        }
        self.keys[i] = key;
        self.vals[i] = val;
        self.len += 1;
    }

    fn grow(&mut self) {
        let new_cap = (self.keys.len() * 2).max(64);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY_KEY; new_cap]);
        let old_vals = std::mem::replace(&mut self.vals, vec![0; new_cap]);
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY_KEY {
                let mask = self.keys.len() - 1;
                let mut i = self.slot_of(k);
                while self.keys[i] != EMPTY_KEY {
                    i = (i + 1) & mask;
                }
                self.keys[i] = k;
                self.vals[i] = v;
                self.len += 1;
            }
        }
    }
}

/// One forward extension `W → node(W·block)`, linked per source node.
#[derive(Debug, Clone, Copy)]
struct Ext {
    block: BlockId,
    target: NodeId,
    next: u32,
}

/// Per-procedure profiling state. [`PathProfile::from_prefixes`] builds
/// with it too, as an unbounded window that never trims.
#[derive(Debug)]
struct ProcTable {
    trie: Trie,
    /// Forward extensions, linked per source node from its `ext_head`. For
    /// a node `N` within the depth bound, `N`'s list holds
    /// `block → node(N·block)` for every such node that exists.
    exts: Vec<Ext>,
    /// The root's children (single-block paths) by block. A walk reaches
    /// the root only on a new edge (or, at depth 0, after a branch), so
    /// this is off the hot path.
    singles: HashMap<BlockId, NodeId>,
    /// Paper's successor-path pointers: (current window node, entered block)
    /// → next window node.
    transitions: TransCache,
    /// The current window's node, one per activation (a stack handles
    /// recursion).
    activations: Vec<NodeId>,
    /// Whether each block's terminator is a counted branch. Blocks past its
    /// end count as not; an unbounded window passes none.
    is_branch: Vec<bool>,
    /// Scratch for [`successor`](Self::successor)'s walk toward the root.
    chain: Vec<NodeId>,
    /// Cache statistics: transition-cache misses (new path suffixes built).
    cache_misses: u64,
    /// Cache statistics: transition-cache hits (O(1) steps).
    cache_hits: u64,
}

impl ProcTable {
    fn new(is_branch: Vec<bool>) -> Self {
        ProcTable {
            trie: Trie::new(),
            exts: Vec::new(),
            singles: HashMap::new(),
            transitions: TransCache::default(),
            activations: Vec::new(),
            is_branch,
            chain: Vec::new(),
            cache_misses: 0,
            cache_hits: 0,
        }
    }

    fn new_node(&mut self, parent: NodeId, block: BlockId) -> NodeId {
        let branches = self.trie.nodes[parent as usize].branches
            + u32::from(self.is_branch.get(block.index()).is_some_and(|&b| b));
        self.trie.add_child(parent, block, branches)
    }

    fn extension(&self, node: &Node, block: BlockId) -> Option<NodeId> {
        let mut e = node.ext_head;
        while e != NONE {
            let ext = &self.exts[e as usize];
            if ext.block == block {
                return Some(ext.target);
            }
            e = ext.next;
        }
        None
    }

    /// The node of the maximal window that follows window `win` when
    /// `block` is entered: `trim(win·block)`.
    ///
    /// With `P` the trie parent of a node `W`: if `W`'s blocks hold more
    /// than `depth` branches, `trim(W·x) = trim(P·x)`; otherwise `W·x` fits
    /// and its node is the child of `node(P·x)` labelled with `W`'s oldest
    /// block. The walk goes toward the root until it meets a node whose
    /// extension by `block` exists, then creates the missing nodes on the
    /// way back, registering each as its source's forward extension.
    fn successor(&mut self, depth: usize, win: NodeId, block: BlockId) -> NodeId {
        let mut chain = std::mem::take(&mut self.chain);
        let mut cur = win;
        let mut next = loop {
            if cur == ROOT {
                if let Some(&single) = self.singles.get(&block) {
                    break single;
                }
                let id = self.new_node(ROOT, block);
                self.singles.insert(block, id);
                break id;
            }
            let node = &self.trie.nodes[cur as usize];
            if node.branches as usize <= depth {
                if let Some(id) = self.extension(node, block) {
                    break id;
                }
                chain.push(cur);
            }
            cur = node.parent;
        };
        while let Some(source) = chain.pop() {
            let oldest = self.trie.nodes[source as usize].block;
            next = self.new_node(next, oldest);
            let head = &mut self.trie.nodes[source as usize].ext_head;
            let link = std::mem::replace(head, self.exts.len() as u32);
            self.exts.push(Ext { block, target: next, next: link });
        }
        self.chain = chain;
        next
    }

    fn on_block(&mut self, depth: usize, block: BlockId) {
        let win = *self.activations.last().expect("activation exists");
        let next = match self.transitions.get(win, block) {
            Some(next) => {
                self.cache_hits += 1;
                next
            }
            None => {
                self.cache_misses += 1;
                let next = self.successor(depth, win, block);
                self.transitions.insert(win, block, next);
                next
            }
        };
        *self.activations.last_mut().expect("activation exists") = next;
        self.trie.counts[next as usize] += 1;
    }
}

/// Live general-path-profile collector.
///
/// Attach to [`Interp::run_traced`](pps_ir::interp::Interp::run_traced),
/// then call [`finish`](Self::finish) to freeze into a queryable
/// [`PathProfile`].
#[derive(Debug)]
pub struct PathProfiler {
    tables: Vec<ProcTable>,
    depth: usize,
}

impl PathProfiler {
    /// Creates a collector for `program` with the given path-length limit
    /// (`depth` counted branches; the paper uses
    /// [`DEFAULT_PATH_DEPTH`] = 15).
    pub fn new(program: &Program, depth: usize) -> Self {
        let tables = program
            .procs
            .iter()
            .map(|p| {
                let is_branch = p
                    .blocks
                    .iter()
                    .map(|b| b.term.is_counted_branch())
                    .collect();
                ProcTable::new(is_branch)
            })
            .collect();
        PathProfiler { tables, depth }
    }

    /// Freezes into a queryable profile, computing subtree sums.
    pub fn finish(self) -> PathProfile {
        let depth = self.depth;
        let procs = self
            .tables
            .into_iter()
            .map(|t| FrozenTable::from_trie(t.trie, t.cache_hits, t.cache_misses))
            .collect();
        PathProfile { procs, depth }
    }
}

impl TraceSink for PathProfiler {
    fn enter_proc(&mut self, proc: ProcId) {
        self.tables[proc.index()].activations.push(ROOT);
    }

    fn exit_proc(&mut self, proc: ProcId) {
        self.tables[proc.index()].activations.pop();
    }

    fn block(&mut self, proc: ProcId, block: BlockId) {
        let depth = self.depth;
        self.tables[proc.index()].on_block(depth, block);
    }
}

/// A frozen trie: each node's children as one sorted run, and its subtree
/// sum.
#[derive(Debug, Clone)]
struct FrozenTable {
    /// Node `n`'s children are `kids[kid_start[n]..kid_start[n + 1]]`, as
    /// `(label, child)` sorted by label.
    kid_start: Vec<u32>,
    kids: Vec<(BlockId, NodeId)>,
    /// Count of each node plus all descendants: the frequency of the
    /// (reversed-keyed) path as a *suffix* of maximal windows — i.e. its
    /// true occurrence frequency. A node's own maximal-window count is its
    /// sum minus its children's.
    subtree: Vec<u64>,
    cache_hits: u64,
    cache_misses: u64,
}

impl FrozenTable {
    fn from_trie(trie: Trie, cache_hits: u64, cache_misses: u64) -> Self {
        let Trie { nodes, counts } = trie;
        let n = nodes.len();
        // Children have larger ids than parents, so a reverse scan turns
        // the counts into subtree sums bottom-up, in place (sums wrap, so
        // `count` recovers every count exactly), and counts each node's
        // children.
        let mut subtree = counts;
        let mut kid_start = vec![0u32; n + 1];
        for i in (1..n).rev() {
            let p = nodes[i].parent as usize;
            subtree[p] = subtree[p].wrapping_add(subtree[i]);
            kid_start[p] += 1;
        }
        // A counting sort on the parent links groups the children: prefix
        // sums make `kid_start[p]` the end of p's run, and filling runs from
        // their ends moves it back to the start.
        let mut sum = 0;
        for end in &mut kid_start {
            sum += *end;
            *end = sum;
        }
        let mut kids = vec![(BlockId::new(0), ROOT); n - 1];
        for i in (1..n).rev() {
            let slot = &mut kid_start[nodes[i].parent as usize];
            *slot -= 1;
            kids[*slot as usize] = (nodes[i].block, i as NodeId);
        }
        for w in kid_start.windows(2) {
            if w[1] - w[0] > 1 {
                kids[w[0] as usize..w[1] as usize].sort_unstable();
            }
        }
        FrozenTable { kid_start, kids, subtree, cache_hits, cache_misses }
    }

    fn children(&self, node: NodeId) -> &[(BlockId, NodeId)] {
        let n = node as usize;
        &self.kids[self.kid_start[n] as usize..self.kid_start[n + 1] as usize]
    }

    /// Times `node`'s path occurred as a maximal window.
    fn count(&self, node: NodeId) -> u64 {
        let own = self.subtree[node as usize];
        self.children(node).iter().fold(own, |c, &(_, k)| c.wrapping_sub(self.subtree[k as usize]))
    }

    fn lookup(&self, seq: &[BlockId]) -> Option<NodeId> {
        seq.iter().rev().try_fold(ROOT, |cur, &b| {
            let kids = self.children(cur);
            // Most runs are a few labels, faster scanned than bisected; the
            // root's run holds every executed block.
            if kids.len() <= 8 {
                kids.iter().find(|&&(label, _)| label == b).map(|&(_, c)| c)
            } else {
                kids.binary_search_by_key(&b, |&(label, _)| label).ok().map(|i| kids[i].1)
            }
        })
    }
}

/// A frozen, queryable general path profile.
#[derive(Debug, Clone)]
pub struct PathProfile {
    procs: Vec<FrozenTable>,
    depth: usize,
}

impl PathProfile {
    /// The path-length limit (in counted branches) this profile was
    /// collected with.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of procedures covered.
    pub fn num_procs(&self) -> usize {
        self.procs.len()
    }

    /// Exact execution frequency of the contiguous block sequence `seq` in
    /// `proc`: the number of times the blocks of `seq` were executed
    /// consecutively within one activation.
    ///
    /// The answer is exact when `seq` is within the profiling depth — i.e.
    /// its first `len-1` blocks contain at most [`depth`](Self::depth)
    /// counted branches. Longer sequences are *undercounted* (the window
    /// never holds them whole); callers should first trim with
    /// [`trim_to_depth`](Self::trim_to_depth).
    pub fn freq(&self, proc: ProcId, seq: &[BlockId]) -> u64 {
        if seq.is_empty() {
            return 0;
        }
        let table = &self.procs[proc.index()];
        table.lookup(seq).map_or(0, |n| table.subtree[n as usize])
    }

    /// Frequency with which `seq` was executed *and was the end of an
    /// activation-maximal window* — exposed for testing the window
    /// mechanics; most callers want [`freq`](Self::freq).
    pub fn maximal_window_count(&self, proc: ProcId, seq: &[BlockId]) -> u64 {
        let table = &self.procs[proc.index()];
        table.lookup(seq).map_or(0, |n| table.count(n))
    }

    /// Execution frequency of a single block, derived from the path table
    /// (every entry to `b` ends exactly one maximal window).
    pub fn block_freq(&self, proc: ProcId, block: BlockId) -> u64 {
        self.freq(proc, &[block])
    }

    /// Traversal frequency of edge `from → to`, derived from the path table.
    pub fn edge_freq(&self, proc: ProcId, from: BlockId, to: BlockId) -> u64 {
        self.freq(proc, &[from, to])
    }

    /// Longest suffix of `seq` within the profiling depth for `proc`,
    /// given the procedure body (needed to classify branch blocks).
    ///
    /// This is the "longest suffix … for which we have exact frequencies"
    /// rule the paper's enlarger uses once a superblock outgrows the
    /// profiling depth.
    pub fn trim_to_depth<'s>(&self, proc_body: &pps_ir::Proc, seq: &'s [BlockId]) -> &'s [BlockId] {
        if seq.is_empty() {
            return seq;
        }
        let mut branches = 0;
        // Walk backwards over all blocks except the newest; stop before
        // exceeding the depth.
        let mut start = seq.len() - 1;
        while start > 0 {
            let b = seq[start - 1];
            let counted = proc_body.block(b).term.is_counted_branch();
            if branches + usize::from(counted) > self.depth {
                break;
            }
            branches += usize::from(counted);
            start -= 1;
        }
        &seq[start..]
    }

    /// Number of distinct paths (trie nodes, excluding the root) recorded
    /// for `proc` — the paper's `npaths`.
    pub fn distinct_paths(&self, proc: ProcId) -> usize {
        self.procs[proc.index()].subtree.len() - 1
    }

    /// Transition-cache statistics `(hits, misses)` for `proc`; the paper's
    /// O(1)-amortized claim corresponds to hits ≫ misses.
    pub fn cache_stats(&self, proc: ProcId) -> (u64, u64) {
        let t = &self.procs[proc.index()];
        (t.cache_hits, t.cache_misses)
    }

    /// Records profile summary metrics into `obs`: distinct paths and
    /// transition-cache totals across all procedures, plus the profiling
    /// depth, as `profile.path.*` counters.
    pub fn record_metrics(&self, obs: &pps_obs::Obs) {
        let mut paths = 0u64;
        let (mut hits, mut misses) = (0u64, 0u64);
        for pi in 0..self.num_procs() {
            let pid = ProcId::new(pi as u32);
            paths += self.distinct_paths(pid) as u64;
            let (h, m) = self.cache_stats(pid);
            hits += h;
            misses += m;
        }
        obs.counter("profile.path.distinct_paths", paths);
        obs.counter("profile.path.cache_hits", hits);
        obs.counter("profile.path.cache_misses", misses);
        obs.counter("profile.path.depth", self.depth as u64);
    }

    /// Enumerates every recorded maximal window of `proc` with its count
    /// (counts > 0 only), in an unspecified but deterministic order. The
    /// profile can be reconstructed exactly from these via
    /// [`from_windows`](Self::from_windows) — the basis of profile
    /// serialization.
    pub fn iter_maximal_windows(&self, proc: ProcId) -> Vec<(Vec<BlockId>, u64)> {
        let table = &self.procs[proc.index()];
        let mut out = Vec::new();
        // Pre-order DFS from the root, children in descending block order.
        // `key` holds the popped node's path newest-first (the trie's key
        // order), so the window is `key` reversed.
        let mut key: Vec<BlockId> = Vec::new();
        let mut stack: Vec<(NodeId, BlockId, usize)> = vec![(ROOT, BlockId::new(0), 0)];
        while let Some((node, label, len)) = stack.pop() {
            if node != ROOT {
                key.truncate(len - 1);
                key.push(label);
            }
            let count = table.count(node);
            if count > 0 {
                out.push((key.iter().rev().copied().collect(), count));
            }
            stack.extend(table.children(node).iter().map(|&(b, c)| (c, b, len + 1)));
        }
        out
    }

    /// The profile whose maximal windows are every prefix of every path in
    /// `per_proc`, each counted with its path's count — the same profile
    /// [`from_windows`](Self::from_windows) builds from those prefixes. A
    /// prefix is its predecessor extended by one block, so each one costs
    /// the nodes it creates plus one lookup, like a live window step.
    pub(crate) fn from_prefixes<'a, I>(depth: usize, per_proc: I) -> PathProfile
    where
        I: IntoIterator,
        I::Item: IntoIterator<Item = (&'a [BlockId], u64)>,
    {
        let procs = per_proc
            .into_iter()
            .map(|paths| {
                let mut table = ProcTable::new(Vec::new());
                for (path, count) in paths {
                    let mut node = ROOT;
                    for &b in path {
                        node = table.successor(usize::MAX, node, b);
                        table.trie.counts[node as usize] += count;
                    }
                }
                FrozenTable::from_trie(table.trie, 0, 0)
            })
            .collect();
        PathProfile { procs, depth }
    }

    /// Reconstructs a profile from per-procedure maximal-window counts (as
    /// produced by [`iter_maximal_windows`](Self::iter_maximal_windows)).
    pub fn from_windows(depth: usize, per_proc: Vec<Vec<(Vec<BlockId>, u64)>>) -> PathProfile {
        let procs = per_proc
            .into_iter()
            .map(|windows| {
                let mut trie = Trie::new();
                let mut child: HashMap<(NodeId, BlockId), NodeId> = HashMap::new();
                for (window, count) in windows {
                    let id = window.iter().rev().fold(ROOT, |cur, &b| {
                        *child.entry((cur, b)).or_insert_with(|| trie.add_child(cur, b, 0))
                    });
                    trie.counts[id as usize] += count;
                }
                FrozenTable::from_trie(trie, 0, 0)
            })
            .collect();
        PathProfile { procs, depth }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_ir::builder::ProgramBuilder;
    use pps_ir::interp::{ExecConfig, Interp};
    use pps_ir::{AluOp, Operand, Program, Reg};

    /// Figure-1-shaped CFG: A branches to B or X; B branches to C or Y;
    /// all paths rejoin and loop `n` times. The branch pattern is chosen by
    /// two period-driven conditions so path frequencies are predictable.
    ///
    /// Returns (program, [A, B, C, X, Y, latch]).
    fn figure1(n: i64, via_x_period: i64, via_y_period: i64) -> (Program, Vec<BlockId>) {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 0);
        let i = f.reg();
        let c = f.reg();
        let m = f.reg();
        f.mov(i, 0i64);
        let a = f.new_block();
        let b = f.new_block();
        let cc = f.new_block();
        let x = f.new_block();
        let y = f.new_block();
        let latch = f.new_block();
        let exit = f.new_block();
        f.jump(a);
        f.switch_to(a);
        f.alu(AluOp::Rem, m, i, via_x_period);
        f.alu(AluOp::CmpEq, c, m, 0i64);
        f.branch(c, x, b); // sometimes go via X
        f.switch_to(x);
        f.jump(b);
        f.switch_to(b);
        f.alu(AluOp::Rem, m, i, via_y_period);
        f.alu(AluOp::CmpEq, c, m, 1i64);
        f.branch(c, y, cc); // sometimes exit via Y
        f.switch_to(y);
        f.jump(latch);
        f.switch_to(cc);
        f.jump(latch);
        f.switch_to(latch);
        f.alu(AluOp::Add, i, i, 1i64);
        f.alu(AluOp::CmpLt, c, Operand::Reg(i), Operand::Imm(n));
        f.branch(c, a, exit);
        f.switch_to(exit);
        f.ret(None);
        let main = f.finish();
        (pb.finish(main), vec![a, b, cc, x, y, latch])
    }

    fn profile(p: &Program, depth: usize) -> PathProfile {
        let mut prof = PathProfiler::new(p, depth);
        Interp::new(p, ExecConfig::default())
            .run_traced(&[], &mut prof)
            .unwrap();
        prof.finish()
    }

    #[test]
    fn path_freqs_disambiguate_figure1() {
        // 12 iterations; i%3==0 -> via X (4 times), i%4==1 -> via Y (3
        // times). Paths ABC and ABY (A directly to B) have exact counts that
        // edge profiles could only bound.
        let (p, ids) = figure1(12, 3, 4);
        let prof = profile(&p, 15);
        let main = p.entry;
        let (a, b, c, x, y, _latch) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]);
        // i in 0..12: via X at i=0,3,6,9; via Y at i=1,5,9.
        assert_eq!(prof.freq(main, &[a, x, b]), 4);
        assert_eq!(prof.freq(main, &[a, b]), 8);
        // ABY: A->B directly (not via X) and then Y: i=1,5 (i=9 goes via X).
        assert_eq!(prof.freq(main, &[a, b, y]), 2);
        assert_eq!(prof.freq(main, &[a, b, c]), 6);
        // Consistency: f(AB) = f(ABY) + f(ABC).
        assert_eq!(
            prof.freq(main, &[a, b]),
            prof.freq(main, &[a, b, y]) + prof.freq(main, &[a, b, c])
        );
        // Block frequency derivation.
        assert_eq!(prof.block_freq(main, a), 12);
        assert_eq!(prof.block_freq(main, b), 12);
        assert_eq!(prof.block_freq(main, y), 3);
        // Edge frequency derivation.
        assert_eq!(prof.edge_freq(main, a, x), 4);
        assert_eq!(prof.edge_freq(main, b, y), 3);
    }

    #[test]
    fn paths_can_span_loop_iterations() {
        // General paths include back edges: the sequence latch->A across
        // iterations must have a frequency.
        let (p, ids) = figure1(12, 3, 4);
        let prof = profile(&p, 15);
        let main = p.entry;
        let (a, latch) = (ids[0], ids[5]);
        assert_eq!(prof.freq(main, &[latch, a]), 11);
        // Two consecutive full iterations both going A->B->C.
        let (b, c) = (ids[1], ids[2]);
        let two_iters = [a, b, c, latch, a, b, c];
        assert!(prof.freq(main, &two_iters) > 0);
    }

    #[test]
    fn depth_zero_only_records_single_branchless_runs() {
        // With depth 0, a window may contain at most 0 executed branches
        // among its non-final blocks.
        let (p, ids) = figure1(4, 2, 2);
        let prof = profile(&p, 0);
        let main = p.entry;
        let (a, x, b) = (ids[0], ids[3], ids[1]);
        // a ends in a branch, so [a, x] exceeds depth 0... but x is entered
        // after a's branch executes; window trims to [x]. However [x, b]
        // holds: x ends in an unconditional jump (not counted).
        assert_eq!(prof.freq(main, &[a, x]), 0);
        assert!(prof.freq(main, &[x, b]) > 0);
    }

    #[test]
    fn brute_force_window_equivalence() {
        use pps_ir::VecSink;
        // Record the raw trace, recompute maximal windows naively, and
        // compare every recorded path's frequency.
        let (p, _) = figure1(10, 3, 5);
        for depth in [0, 1, 2, 15] {
            let prof = profile(&p, depth);
            let mut sink = VecSink::new();
            Interp::new(&p, ExecConfig::default())
                .run_traced(&[], &mut sink)
                .unwrap();
            let main = p.entry;
            let proc = p.proc(main);
            let blocks: Vec<BlockId> = sink.blocks().iter().map(|&(_, b)| b).collect();
            // Naive: for each position, compute the maximal window ending
            // there; then count every subsequence query via suffix matching.
            let is_branch = |b: BlockId| proc.block(b).term.is_counted_branch();
            let mut windows: Vec<Vec<BlockId>> = Vec::new();
            for end in 0..blocks.len() {
                let mut start = end;
                let mut branches = 0;
                while start > 0 {
                    let b = blocks[start - 1];
                    if branches + usize::from(is_branch(b)) > depth {
                        break;
                    }
                    branches += usize::from(is_branch(b));
                    start -= 1;
                }
                windows.push(blocks[start..=end].to_vec());
            }
            // Check freq() for a set of probe sequences derived from windows.
            for probe in windows.iter().take(200) {
                let expected = windows
                    .iter()
                    .filter(|w| w.len() >= probe.len() && w[w.len() - probe.len()..] == probe[..])
                    .count() as u64;
                assert_eq!(
                    prof.freq(main, probe),
                    expected,
                    "depth={depth} probe={probe:?}"
                );
            }
        }
    }

    #[test]
    fn trim_to_depth_respects_branch_counts() {
        let (p, ids) = figure1(4, 2, 2);
        let prof = profile(&p, 1);
        let proc = p.proc(p.entry);
        let (a, b, c, latch) = (ids[0], ids[1], ids[2], ids[5]);
        // Sequence with 3 branch blocks among non-final: a, b, latch.
        let seq = [a, b, c, latch, a];
        let trimmed = prof.trim_to_depth(proc, &seq);
        // Depth 1 allows only one counted-branch among non-final blocks:
        // walking back from `a`: latch is a branch (1), c is a jump (ok),
        // b is a branch (would be 2) -> stop. Suffix = [c, latch, a].
        assert_eq!(trimmed, &[c, latch, a]);
    }

    #[test]
    fn cache_hits_dominate_on_repetitive_traces() {
        let (p, _) = figure1(3000, 3, 4);
        let prof = profile(&p, 15);
        let (hits, misses) = prof.cache_stats(p.entry);
        assert!(hits > misses * 50, "hits={hits} misses={misses}");
        assert!(prof.distinct_paths(p.entry) > 0);
    }

    #[test]
    fn recursion_keeps_windows_separate() {
        // f(n): if n > 0 { f(n-1) } — the path window of the outer
        // activation must not absorb inner-activation blocks.
        let mut pb = ProgramBuilder::new();
        let fid = pb.declare_proc("f", 1);
        let mut g = pb.begin_declared(fid);
        let n = Reg::new(0);
        let cnd = g.reg();
        let rec = g.new_block();
        let done = g.new_block();
        g.alu(AluOp::CmpLt, cnd, Operand::Imm(0), Operand::Reg(n));
        g.branch(cnd, rec, done);
        g.switch_to(rec);
        let m = g.reg();
        g.alu(AluOp::Sub, m, n, 1i64);
        g.call(fid, vec![Operand::Reg(m)], None);
        g.jump(done);
        g.switch_to(done);
        g.ret(None);
        g.finish();
        let mut f = pb.begin_proc("main", 0);
        f.call(fid, vec![Operand::Imm(5)], None);
        f.ret(None);
        let main = f.finish();
        let p = pb.finish(main);

        let prof = profile(&p, 15);
        let entry = BlockId::new(0);
        // Six activations of f, each entering its entry block exactly once.
        assert_eq!(prof.block_freq(fid, entry), 6);
        // Within one activation the entry never repeats: path [entry, entry]
        // never occurs even though entries are adjacent in the global trace.
        assert_eq!(prof.freq(fid, &[entry, entry]), 0);
    }
}
