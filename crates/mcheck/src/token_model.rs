//! Model-checkable specifications of the token coherence correctness
//! substrate (§5).
//!
//! Three variants, as in the paper:
//!
//! * [`SubstrateMode::SafetyOnly`] — the bare counting substrate with a
//!   *nondeterministic performance-policy interface*: any node may send
//!   any legal token bundle to any node at any time. Verifying this model
//!   verifies safety under **every possible performance policy**, which is
//!   the paper's key verification claim.
//! * [`SubstrateMode::Distributed`] — adds the distributed-activation
//!   persistent request mechanism (tables at every node, fixed priority,
//!   wave marking), with activation/deactivation as real network messages.
//! * [`SubstrateMode::Arbiter`] — adds the original arbiter-based
//!   mechanism (FIFO arbiter at memory).
//!
//! Checked properties: token conservation, single owner, the coherence
//! invariant (one writer xor readers, enforced by counting), a **serial
//! view of memory** (every readable copy equals the last written value —
//! an invariant over all reachable states, hence over every possible
//! read), plus deadlock-freedom and EF-quiescence progress for the
//! persistent mechanisms.
//!
//! Configurations are downscaled in the standard way (few caches, few
//! tokens, bounded in-flight messages, bounded writes to keep the value
//! domain exact).

use std::iter::repeat_n;

use crate::checker::{ActionMeta, Model};
use crate::explore::permutations;
use crate::inline_vec::InlineVec;

/// Most caches a [`TokenModel`] (or [`crate::DirModel`]) may have: the
/// inline state is sized for it (DESIGN.md §17).
pub(crate) const MAX_CACHES: usize = 4;
/// Most recreations ([`TokenModelParams::max_serials`]) the lost-token
/// ledger has room for.
const MAX_SERIALS: u8 = 3;
const MAX_NODES: usize = MAX_CACHES + 1;
/// Room for in-flight messages; [`TokenModelParams::net_bound`] must fit.
const NET_CAP: usize = 12;
/// The lost-token ledger has one entry per serial.
const LOST_CAP: usize = MAX_SERIALS as usize + 1;
/// Room for queued arbiter requests: each cache queues at most once and
/// the active one is not queued, so `caches - 1`.
const ARB_CAP: usize = MAX_CACHES - 1;

/// Which starvation-avoidance mechanism the model includes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SubstrateMode {
    /// No persistent requests; safety only.
    SafetyOnly,
    /// Distributed activation (TokenCMP-dst).
    Distributed,
    /// Arbiter-based activation (TokenCMP-arb).
    Arbiter,
}

/// Model parameters (downscaled configuration).
#[derive(Clone, Copy, Debug)]
pub struct TokenModelParams {
    /// Cache nodes (memory is one extra node).
    pub caches: usize,
    /// Tokens per block, `T` (must exceed `caches + 1` for persistent
    /// reads to be non-blocking, mirroring the real constraint).
    pub tokens: u8,
    /// Maximum in-flight token-carrying messages.
    pub max_inflight: usize,
    /// Maximum in-flight persistent control messages.
    pub max_ctl_inflight: usize,
    /// Total writes to explore (bounds the exact value domain).
    pub max_writes: u8,
    /// Mechanism under verification.
    pub mode: SubstrateMode,
    /// Token-loss recovery (§15): let the interconnect lose droppable
    /// token bundles and model the serial-bumping recreation protocol.
    pub recovery: bool,
    /// Recreation budget: how many serial bumps the model may explore
    /// (losses are only allowed while budget to repair them remains,
    /// keeping EF-quiescence meaningful).
    pub max_serials: u8,
}

impl TokenModelParams {
    /// The default downscaled configuration used by the Section 5
    /// reproduction: 2 caches + memory, T = 4.
    pub fn small(mode: SubstrateMode) -> TokenModelParams {
        TokenModelParams {
            caches: 2,
            tokens: 4,
            max_inflight: if mode == SubstrateMode::Arbiter { 1 } else { 2 },
            max_ctl_inflight: if mode == SubstrateMode::SafetyOnly {
                2
            } else {
                1
            },
            max_writes: if mode == SubstrateMode::SafetyOnly {
                2
            } else {
                1
            },
            mode,
            recovery: false,
            max_serials: 0,
        }
    }

    /// The downscaled token-loss recovery configuration (§15):
    /// [`small`](TokenModelParams::small) plus interconnect loss of
    /// droppable bundles and one recreation of the block's tokens.
    /// One write keeps the exact value domain small enough for the
    /// enlarged (serial-tagged) state space.
    pub fn small_recovery(mode: SubstrateMode) -> TokenModelParams {
        TokenModelParams {
            recovery: true,
            max_serials: 1,
            max_writes: 1,
            ..TokenModelParams::small(mode)
        }
    }

    /// The most messages in flight in any reachable state: at most
    /// `max_inflight` token bundles, at most `caches` recreation
    /// handshakes (one per invalidated cache), and under a persistent
    /// mechanism the control messages an issue or completion may add
    /// within the control budget — each broadcasts to at most `caches`
    /// nodes (distributed), or adds one request or notice while the
    /// arbiter's activations for its one active request number at most
    /// `caches`.
    fn net_bound(&self) -> usize {
        let handshakes = if self.recovery { self.caches } else { 0 };
        let control = match self.mode {
            SubstrateMode::SafetyOnly => 0,
            SubstrateMode::Distributed | SubstrateMode::Arbiter => {
                self.max_ctl_inflight + self.caches
            }
        };
        self.max_inflight + handshakes + control
    }
}

/// Per-node token state (caches and memory obey identical rules — the
/// substrate is flat).
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeSt {
    /// Tokens held.
    pub tokens: u8,
    /// Owner token held.
    pub owner: bool,
    /// Valid data held (forced false at zero tokens).
    pub data: bool,
    /// Data version (meaningful when `data`).
    pub val: u8,
}

/// Read or write persistent request.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum PKind {
    /// Needs one token (and leaves read permission elsewhere).
    #[default]
    Read,
    /// Needs all tokens.
    Write,
}

/// A network message.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum TMsg {
    /// A token bundle to `dst`.
    Tokens {
        /// Destination node.
        dst: u8,
        /// Token count.
        count: u8,
        /// Owner token included.
        owner: bool,
        /// Data included.
        data: bool,
        /// Data version (0 when `!data`).
        val: u8,
        /// Recreation serial the tokens were minted under (always 0
        /// without recovery).
        serial: u8,
    },
    /// Recreation invalidation: adopt `serial`, destroy holdings minted
    /// under older serials, then ack (recovery only).
    RecreateInval {
        /// Destination node.
        dst: u8,
        /// The serial being brought into force.
        serial: u8,
    },
    /// Recreation-invalidation ack back to the token authority
    /// (recovery only).
    RecreateAck {
        /// The serial acknowledged.
        serial: u8,
    },
    /// Distributed activation broadcast element.
    Activate {
        /// Destination node.
        dst: u8,
        /// Requesting cache.
        proc: u8,
        /// Request kind.
        kind: PKind,
    },
    /// Distributed deactivation broadcast element.
    Deactivate {
        /// Destination node.
        dst: u8,
        /// Requesting cache.
        proc: u8,
    },
    /// Arbiter request (to memory).
    ArbRequest {
        /// Requesting cache.
        proc: u8,
        /// Request kind.
        kind: PKind,
    },
    /// Arbiter activation broadcast element.
    ArbActivate {
        /// Destination node.
        dst: u8,
        /// Requesting cache.
        proc: u8,
        /// Request kind.
        kind: PKind,
    },
    /// Requester → arbiter completion notice.
    ArbDone {
        /// Requesting cache.
        proc: u8,
    },
    /// Arbiter deactivation broadcast element.
    ArbDeactivate {
        /// Destination node.
        dst: u8,
        /// Requesting cache.
        proc: u8,
    },
}

/// Filler for the unused slots of an [`InlineVec`]; never observed.
impl Default for TMsg {
    fn default() -> TMsg {
        TMsg::RecreateAck { serial: 0 }
    }
}

/// A persistent-table entry at some node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TableEntry {
    /// Request kind.
    pub kind: PKind,
    /// Wave-marked (blocks local re-issue).
    pub marked: bool,
}

/// The global model state. Every sequence is an [`InlineVec`] sized by
/// the bounds [`TokenModel::new`] enforces, so a state never allocates
/// and hashes, compares and prints exactly as `Vec`s holding the same
/// elements would.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TState {
    /// Caches `0..caches`, then memory at index `caches`.
    pub nodes: InlineVec<NodeSt, MAX_NODES>,
    /// In-flight messages (kept sorted: a multiset).
    pub net: InlineVec<TMsg, NET_CAP>,
    /// Specification variable: the last written version.
    pub current: u8,
    /// Writes performed so far.
    pub writes: u8,
    /// Per-cache outstanding persistent request.
    pub my_req: InlineVec<Option<PKind>, MAX_CACHES>,
    /// `tables[node][proc]`: remembered persistent requests.
    pub tables: InlineVec<InlineVec<Option<TableEntry>, MAX_CACHES>, MAX_NODES>,
    /// Arbiter queue at memory (FIFO).
    pub arb_queue: InlineVec<(u8, PKind), ARB_CAP>,
    /// Arbiter's currently active request.
    pub arb_current: Option<(u8, PKind)>,
    /// Per-node recreation serial (all 0 without recovery). The
    /// authority's entry (`serials[mem]`) is the block's current serial.
    pub serials: InlineVec<u8, MAX_NODES>,
    /// An in-progress recreation at the authority: `(serial, acks
    /// still awaited)`.
    pub recreating: Option<(u8, u8)>,
    /// Tokens the interconnect destroyed, indexed by serial:
    /// `(count, owner lost)`. Conservation holds per epoch *modulo*
    /// this ledger.
    pub lost: InlineVec<(u8, bool), LOST_CAP>,
}

/// The token substrate model.
#[derive(Clone, Copy, Debug)]
pub struct TokenModel {
    /// Parameters.
    pub p: TokenModelParams,
}

impl TokenModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `p` needs more room than the inline state has: more
    /// than 4 caches, more than 3 recreations (`max_serials`), a bound
    /// on in-flight messages above 12 (`max_inflight`, plus `caches`
    /// recreation handshakes under recovery, plus `max_ctl_inflight +
    /// caches` control messages under a persistent mechanism), or,
    /// under arbiter activation, more than one control message in
    /// flight (the bound that keeps each cache queued at most once).
    /// Also panics unless `tokens > caches + 1`.
    pub fn new(p: TokenModelParams) -> TokenModel {
        assert!(
            p.caches <= MAX_CACHES,
            "TokenModel holds at most {MAX_CACHES} caches, got {}",
            p.caches
        );
        assert!(
            p.max_serials <= MAX_SERIALS,
            "TokenModel max_serials is at most {MAX_SERIALS}, got {}",
            p.max_serials
        );
        assert!(
            p.net_bound() <= NET_CAP,
            "TokenModel net bound {} exceeds the {NET_CAP}-message capacity",
            p.net_bound()
        );
        assert!(
            p.mode != SubstrateMode::Arbiter || p.max_ctl_inflight <= 1,
            "TokenModel arbiter queue bound needs max_ctl_inflight <= 1, got {}",
            p.max_ctl_inflight
        );
        assert!(p.tokens as usize > p.caches + 1, "need T > holders");
        TokenModel { p }
    }

    fn n_nodes(&self) -> usize {
        self.p.caches + 1
    }

    fn mem(&self) -> usize {
        self.p.caches
    }

    fn push(out: &mut Vec<(String, TState)>, label: String, mut s: TState) {
        s.net.sort();
        out.push((label, s));
    }

    /// The active (highest-priority) distributed request known at `node`.
    fn dist_active(&self, s: &TState, node: usize) -> Option<(u8, PKind)> {
        s.tables[node]
            .iter()
            .enumerate()
            .find_map(|(p, e)| e.map(|e| (p as u8, e.kind)))
    }

    /// What `node` should forward to an active request of `kind`.
    fn grant(st: &NodeSt, kind: PKind) -> Option<(u8, bool, bool)> {
        // (count, owner, data)
        match kind {
            PKind::Write => {
                if st.tokens > 0 {
                    Some((st.tokens, st.owner, st.data))
                } else {
                    None
                }
            }
            PKind::Read => {
                if st.tokens >= 2 {
                    Some((st.tokens - 1, false, st.data))
                } else {
                    None
                }
            }
        }
    }

    fn apply_grant(st: &mut NodeSt, g: (u8, bool, bool)) {
        st.tokens -= g.0;
        if g.1 {
            st.owner = false;
        }
        if st.tokens == 0 {
            st.data = false;
            st.owner = false;
        }
    }

    fn broadcast(&self, s: &mut TState, except: usize, f: impl Fn(u8) -> TMsg) {
        for d in 0..self.n_nodes() {
            if d != except {
                s.net.push(f(d as u8));
            }
        }
    }

    fn token_inflight(&self, s: &TState) -> usize {
        s.net
            .iter()
            .filter(|m| matches!(m, TMsg::Tokens { .. }))
            .count()
    }

    fn ctl_inflight(&self, s: &TState) -> usize {
        s.net.len() - self.token_inflight(s)
    }
}

impl Model for TokenModel {
    type State = TState;

    fn initial(&self) -> Vec<TState> {
        let n = self.n_nodes();
        let mut nodes: InlineVec<NodeSt, MAX_NODES> = repeat_n(NodeSt::default(), n).collect();
        nodes[self.mem()] = NodeSt {
            tokens: self.p.tokens,
            owner: true,
            data: true,
            val: 0,
        };
        vec![TState {
            nodes,
            net: InlineVec::new(),
            current: 0,
            writes: 0,
            my_req: repeat_n(None, self.p.caches).collect(),
            tables: repeat_n(repeat_n(None, self.p.caches).collect(), n).collect(),
            arb_queue: InlineVec::new(),
            arb_current: None,
            serials: repeat_n(0, n).collect(),
            recreating: None,
            lost: repeat_n((0, false), self.p.max_serials as usize + 1).collect(),
        }]
    }

    fn successors(&self, s: &TState, out: &mut Vec<(String, TState)>) {
        let n = self.n_nodes();

        // --- nondeterministic performance-policy interface: sends -------
        //
        // In SafetyOnly mode every legal bundle may move between any two
        // nodes at any time — verifying safety under *all* performance
        // policies (the paper's TokenCMP-safety model). The persistent-
        // mechanism models restrict policy sends to memory grants and
        // writebacks so their larger control state stays tractable,
        // mirroring the paper's decomposition into a safety model and
        // per-mechanism models.
        let policy_sends = self.p.mode == SubstrateMode::SafetyOnly;
        if policy_sends && self.token_inflight(s) < self.p.max_inflight {
            for i in 0..n {
                let st = &s.nodes[i];
                if st.tokens == 0 {
                    continue;
                }
                for dst in 0..n {
                    if dst == i {
                        continue;
                    }
                    // Send everything (owner travels with data).
                    let mut t = s.clone();
                    let bundle = (st.tokens, st.owner, st.data);
                    Self::apply_grant(&mut t.nodes[i], bundle);
                    t.net.push(TMsg::Tokens {
                        dst: dst as u8,
                        count: bundle.0,
                        owner: bundle.1,
                        data: bundle.2,
                        val: if bundle.2 { st.val } else { 0 },
                        serial: s.serials[i],
                    });
                    Self::push(out, format!("send-all {i}->{dst}"), t);
                    // Send one non-owner token, with and without data.
                    if st.tokens >= 2 {
                        for data in [false, true] {
                            if data && !st.data {
                                continue;
                            }
                            let mut t = s.clone();
                            t.nodes[i].tokens -= 1;
                            t.net.push(TMsg::Tokens {
                                dst: dst as u8,
                                count: 1,
                                owner: false,
                                data,
                                val: if data { st.val } else { 0 },
                                serial: s.serials[i],
                            });
                            Self::push(out, format!("send-1 {i}->{dst} data={data}"), t);
                        }
                    }
                }
            }
        }

        if !policy_sends && self.token_inflight(s) < self.p.max_inflight {
            // Memory grants everything to any cache (a transient-request
            // response), and any cache may write everything back.
            let mem = self.mem();
            if s.nodes[mem].tokens > 0 {
                for dst in 0..self.p.caches {
                    let mut t = s.clone();
                    let st = s.nodes[mem];
                    let bundle = (st.tokens, st.owner, st.data);
                    Self::apply_grant(&mut t.nodes[mem], bundle);
                    t.net.push(TMsg::Tokens {
                        dst: dst as u8,
                        count: bundle.0,
                        owner: bundle.1,
                        data: bundle.2,
                        val: if bundle.2 { st.val } else { 0 },
                        serial: s.serials[mem],
                    });
                    Self::push(out, format!("mem-grant ->{dst}"), t);
                }
            }
            for i in 0..self.p.caches {
                let st = &s.nodes[i];
                if st.tokens > 0 {
                    let mut t = s.clone();
                    let bundle = (st.tokens, st.owner, st.data);
                    let val = st.val;
                    Self::apply_grant(&mut t.nodes[i], bundle);
                    t.net.push(TMsg::Tokens {
                        dst: mem as u8,
                        count: bundle.0,
                        owner: bundle.1,
                        data: bundle.2,
                        val: if bundle.2 { val } else { 0 },
                        serial: s.serials[i],
                    });
                    Self::push(out, format!("writeback {i}->mem"), t);
                }
            }
        }

        // --- message delivery -------------------------------------------
        for (mi, m) in s.net.iter().enumerate() {
            let mut t = s.clone();
            t.net.remove(mi);
            match *m {
                TMsg::Tokens {
                    dst,
                    count,
                    owner,
                    data,
                    val,
                    serial,
                } => {
                    if serial < t.serials[dst as usize] {
                        // Minted under a superseded serial: destroy at
                        // receipt. A stale owner still hands its data
                        // back to the authority's backing store (the
                        // StaleDataReturn path; for a clean owner the
                        // store already matches, so this is a no-op).
                        if owner && data {
                            t.nodes[self.mem()].val = val;
                        }
                        Self::push(out, format!("deliver-stale ->{dst}"), t);
                    } else {
                        let d = &mut t.nodes[dst as usize];
                        d.tokens += count;
                        if owner {
                            d.owner = true;
                        }
                        if data {
                            d.data = true;
                            d.val = val;
                        }
                        // Unreachable above the node's serial (the mint
                        // waits for every ack), mirrored defensively
                        // from the implementation's fold path.
                        t.serials[dst as usize] = t.serials[dst as usize].max(serial);
                        // (Remembered persistent requests capture these tokens
                        // via the separate forwarding action below.)
                        Self::push(out, format!("deliver-tokens ->{dst}"), t);
                    }
                }
                TMsg::RecreateInval { dst, serial } => {
                    let d = dst as usize;
                    t.serials[d] = serial;
                    let nd = t.nodes[d];
                    if nd.owner && nd.data {
                        // StaleDataReturn: a destroyed owner hands its
                        // data back to the authority before the ack
                        // releases the mint (the drain window covers
                        // the return's flight time).
                        t.nodes[self.mem()].val = nd.val;
                    }
                    t.nodes[d] = NodeSt {
                        tokens: 0,
                        owner: false,
                        data: false,
                        val: 0,
                    };
                    t.net.push(TMsg::RecreateAck { serial });
                    Self::push(out, format!("deliver-inval ->{dst}"), t);
                }
                TMsg::RecreateAck { serial } => {
                    let (ns, awaiting) = t.recreating.expect("ack outside a recreation");
                    debug_assert_eq!(ns, serial);
                    t.recreating = Some((ns, awaiting - 1));
                    Self::push(out, format!("deliver-ack s{serial}"), t);
                }
                TMsg::Activate { dst, proc, kind } => {
                    t.tables[dst as usize][proc as usize] = Some(TableEntry {
                        kind,
                        marked: false,
                    });
                    Self::push(out, format!("deliver-activate p{proc}->{dst}"), t);
                }
                TMsg::Deactivate { dst, proc } => {
                    t.tables[dst as usize][proc as usize] = None;
                    Self::push(out, format!("deliver-deactivate p{proc}->{dst}"), t);
                }
                TMsg::ArbRequest { proc, kind } => {
                    if t.arb_current.is_none() {
                        t.arb_current = Some((proc, kind));
                        // The arbiter's own (memory) table updates locally;
                        // caches learn via activation messages.
                        let mem = self.mem();
                        t.tables[mem][proc as usize] = Some(TableEntry {
                            kind,
                            marked: false,
                        });
                        self.broadcast(&mut t, mem, |d| TMsg::ArbActivate { dst: d, proc, kind });
                    } else {
                        t.arb_queue.push((proc, kind));
                    }
                    Self::push(out, format!("arb-request p{proc}"), t);
                }
                TMsg::ArbActivate { dst, proc, kind } => {
                    t.tables[dst as usize][proc as usize] = Some(TableEntry {
                        kind,
                        marked: false,
                    });
                    Self::push(out, format!("deliver-arb-activate p{proc}->{dst}"), t);
                }
                TMsg::ArbDone { proc } => {
                    // A request satisfied before activation — tokens can
                    // arrive from ordinary transfers — must still be
                    // withdrawn from the arbiter's queue, or the arbiter
                    // would later activate a ghost request.
                    if t.arb_current.map(|(p, _)| p) != Some(proc) {
                        if let Some(pos) = t.arb_queue.iter().position(|&(p, _)| p == proc) {
                            t.arb_queue.remove(pos);
                        }
                    }
                    if t.arb_current.map(|(p, _)| p) == Some(proc) {
                        // Deactivation is applied atomically at every table
                        // (a downscaling simplification that keeps the
                        // activation/token races, which are the interesting
                        // ones, fully modeled).
                        for node in 0..self.n_nodes() {
                            t.tables[node][proc as usize] = None;
                        }
                        t.net.retain(
                            |m| !matches!(m, TMsg::ArbActivate { proc: p, .. } if *p == proc),
                        );
                        t.arb_current = if t.arb_queue.is_empty() {
                            None
                        } else {
                            let (np, nk) = t.arb_queue.remove(0);
                            let mem = self.mem();
                            t.tables[mem][np as usize] = Some(TableEntry {
                                kind: nk,
                                marked: false,
                            });
                            self.broadcast(&mut t, mem, |d| TMsg::ArbActivate {
                                dst: d,
                                proc: np,
                                kind: nk,
                            });
                            Some((np, nk))
                        };
                    }
                    Self::push(out, format!("arb-done p{proc}"), t);
                }
                TMsg::ArbDeactivate { dst, proc } => {
                    t.tables[dst as usize][proc as usize] = None;
                    Self::push(out, format!("deliver-arb-deactivate p{proc}->{dst}"), t);
                }
            }
        }

        // --- token loss and recreation (§15) ----------------------------
        if self.p.recovery {
            let mem = self.mem();
            let current = s.serials[mem];
            // The interconnect loses a droppable bundle: never a dirty
            // owner (committed stores travel acknowledged), and — a
            // downscaling of the unbounded real schedule — only while a
            // recreation remains available to repair the epoch, so
            // EF-quiescence stays meaningful.
            for (mi, m) in s.net.iter().enumerate() {
                let TMsg::Tokens {
                    dst,
                    count,
                    owner,
                    data,
                    val,
                    serial,
                } = *m
                else {
                    continue;
                };
                let dirty_owner = owner && data && val != s.nodes[mem].val;
                let repairable = serial < current || current < self.p.max_serials;
                if dirty_owner || !repairable {
                    continue;
                }
                let mut t = s.clone();
                t.net.remove(mi);
                let e = &mut t.lost[serial as usize];
                e.0 += count;
                e.1 |= owner;
                Self::push(out, format!("lose ->{dst}"), t);
            }
            // The authority starts a recreation: bump the serial,
            // destroy its own (now stale) holding, broadcast
            // invalidations. Enabled whenever budget remains — the real
            // timeout may fire on a merely-slow block, so safety must
            // hold under spurious recreation too.
            if s.recreating.is_none() && current < self.p.max_serials {
                let mut t = s.clone();
                let ns = current + 1;
                t.serials[mem] = ns;
                t.nodes[mem].tokens = 0;
                t.nodes[mem].owner = false;
                t.nodes[mem].data = false;
                self.broadcast(&mut t, mem, |d| TMsg::RecreateInval { dst: d, serial: ns });
                t.recreating = Some((ns, self.p.caches as u8));
                Self::push(out, "recreate-start".into(), t);
            }
            // The mint: every invalidation acked and every stale bundle
            // drained (the drain window's postcondition — before the
            // mint, *any* in-flight token bundle is stale by
            // construction, so the guard is simply an empty token net).
            if s.recreating == Some((current, 0))
                && !s.net.iter().any(|m| matches!(m, TMsg::Tokens { .. }))
            {
                let mut t = s.clone();
                t.nodes[mem].tokens = self.p.tokens;
                t.nodes[mem].owner = true;
                t.nodes[mem].data = true;
                t.recreating = None;
                Self::push(out, "recreate-done".into(), t);
            }
        }

        // --- writes (any cache holding everything may commit a store) ---
        if s.writes < self.p.max_writes {
            for i in 0..self.p.caches {
                let st = &s.nodes[i];
                if st.tokens == self.p.tokens && st.data {
                    debug_assert!(st.owner);
                    let mut t = s.clone();
                    t.writes += 1;
                    t.current = t.writes;
                    t.nodes[i].val = t.writes;
                    Self::push(out, format!("write c{i} v{}", t.writes), t);
                }
            }
        }

        if self.p.mode == SubstrateMode::SafetyOnly {
            return;
        }

        // --- persistent request issue ------------------------------------
        if self.ctl_inflight(s) < self.p.max_ctl_inflight {
            for i in 0..self.p.caches {
                if s.my_req[i].is_some() {
                    continue;
                }
                // Wave rule: no marked entries in the local table.
                if s.tables[i].iter().flatten().any(|e| e.marked) {
                    continue;
                }
                for kind in [PKind::Read, PKind::Write] {
                    let mut t = s.clone();
                    t.my_req[i] = Some(kind);
                    match self.p.mode {
                        SubstrateMode::Distributed => {
                            t.tables[i][i] = Some(TableEntry {
                                kind,
                                marked: false,
                            });
                            self.broadcast(&mut t, i, |d| TMsg::Activate {
                                dst: d,
                                proc: i as u8,
                                kind,
                            });
                        }
                        SubstrateMode::Arbiter => {
                            t.net.push(TMsg::ArbRequest {
                                proc: i as u8,
                                kind,
                            });
                        }
                        SubstrateMode::SafetyOnly => unreachable!(),
                    }
                    Self::push(out, format!("issue c{i} {kind:?}"), t);
                }
            }
        }

        // --- forwarding to remembered active requests ----------------------
        if self.token_inflight(s) < self.p.max_inflight {
            for i in 0..n {
                let active = match self.p.mode {
                    SubstrateMode::Distributed => self.dist_active(s, i),
                    SubstrateMode::Arbiter => self.arb_known(s, i),
                    SubstrateMode::SafetyOnly => None,
                };
                let Some((proc, kind)) = active else {
                    continue;
                };
                if proc as usize == i {
                    continue;
                }
                let Some(g) = Self::grant(&s.nodes[i], kind) else {
                    continue;
                };
                let mut t = s.clone();
                let val = t.nodes[i].val;
                Self::apply_grant(&mut t.nodes[i], g);
                t.net.push(TMsg::Tokens {
                    dst: proc,
                    count: g.0,
                    owner: g.1,
                    data: g.2,
                    val: if g.2 { val } else { 0 },
                    serial: s.serials[i],
                });
                Self::push(out, format!("forward {i}->p{proc}"), t);
            }
        }

        // --- persistent completion -----------------------------------------
        for i in 0..self.p.caches {
            let Some(kind) = s.my_req[i] else {
                continue;
            };
            let st = &s.nodes[i];
            let satisfied = match kind {
                PKind::Write => st.tokens == self.p.tokens && st.data,
                PKind::Read => st.tokens >= 1 && st.data,
            };
            if !satisfied {
                continue;
            }
            if self.ctl_inflight(s) >= self.p.max_ctl_inflight {
                continue;
            }
            let mut t = s.clone();
            t.my_req[i] = None;
            if kind == PKind::Write && t.writes < self.p.max_writes {
                t.writes += 1;
                t.current = t.writes;
                t.nodes[i].val = t.writes;
            }
            match self.p.mode {
                SubstrateMode::Distributed => {
                    t.tables[i][i] = None;
                    // Wave rule: mark every other outstanding request.
                    for e in t.tables[i].iter_mut().flatten() {
                        e.marked = true;
                    }
                    self.broadcast(&mut t, i, |d| TMsg::Deactivate {
                        dst: d,
                        proc: i as u8,
                    });
                }
                SubstrateMode::Arbiter => {
                    t.net.push(TMsg::ArbDone { proc: i as u8 });
                }
                SubstrateMode::SafetyOnly => unreachable!(),
            }
            Self::push(out, format!("complete c{i} {kind:?}"), t);
        }
    }

    fn invariant(&self, s: &TState) -> Result<(), String> {
        let mem = self.mem();
        let current = s.serials[mem];
        // Conservation per epoch. A node's held tokens belong to the
        // node's tracked serial; bundles carry their own. Without a
        // recreation in progress every epoch-`current` token (and the
        // owner) is accounted exactly, modulo the lost ledger; during
        // one, the superseding epoch must still be empty (the mint
        // comes last) and the old epoch may only deflate (invalidations
        // destroy tokens without recording them anywhere).
        let held_at = |e: u8| -> (u32, u32) {
            let mut tokens = 0;
            let mut owners = 0;
            for (i, nd) in s.nodes.iter().enumerate() {
                if s.serials[i] == e {
                    tokens += nd.tokens as u32;
                    owners += nd.owner as u32;
                }
            }
            (tokens, owners)
        };
        let flying_at = |e: u8| -> (u32, u32) {
            let mut tokens = 0;
            let mut owners = 0;
            for m in &s.net {
                if let TMsg::Tokens {
                    count,
                    owner,
                    serial,
                    ..
                } = m
                {
                    if *serial == e {
                        tokens += *count as u32;
                        owners += *owner as u32;
                    }
                }
            }
            (tokens, owners)
        };
        for m in &s.net {
            if let TMsg::Tokens { serial, .. } = m {
                if *serial > current {
                    return Err(format!(
                        "bundle minted under future serial {serial} (current {current})"
                    ));
                }
            }
        }
        match s.recreating {
            None => {
                if let Some(i) = (0..s.serials.len()).find(|&i| s.serials[i] != current) {
                    return Err(format!(
                        "node {i} at serial {} after recreation to {current} completed",
                        s.serials[i]
                    ));
                }
                let (held, howners) = held_at(current);
                let (flying, fowners) = flying_at(current);
                let (lost, lost_owner) = s.lost[current as usize];
                if held + flying + lost as u32 != self.p.tokens as u32 {
                    return Err(format!(
                        "epoch {current} conservation: {held} held + {flying} in \
                         flight + {lost} lost != {}",
                        self.p.tokens
                    ));
                }
                let owners = howners + fowners + lost_owner as u32;
                if owners != 1 {
                    return Err(format!("epoch {current} owner count {owners} != 1"));
                }
            }
            Some((ns, awaiting)) => {
                if ns != current {
                    return Err(format!(
                        "recreating serial {ns} but authority tracks {current}"
                    ));
                }
                let (new_held, _) = held_at(ns);
                let (new_flying, _) = flying_at(ns);
                if new_held + new_flying != 0 {
                    return Err(format!(
                        "epoch {ns} has {new_held} held + {new_flying} in flight \
                         before its mint"
                    ));
                }
                let old = ns - 1;
                let (held, howners) = held_at(old);
                let (flying, fowners) = flying_at(old);
                let (lost, lost_owner) = s.lost[old as usize];
                if held + flying + lost as u32 > self.p.tokens as u32 {
                    return Err(format!(
                        "epoch {old} inflation during recreation: {held} held + \
                         {flying} in flight + {lost} lost > {}",
                        self.p.tokens
                    ));
                }
                if howners + fowners + lost_owner as u32 > 1 {
                    return Err(format!("epoch {old} has multiple owners"));
                }
                let handshakes = s
                    .net
                    .iter()
                    .filter(|m| matches!(m, TMsg::RecreateInval { .. } | TMsg::RecreateAck { .. }))
                    .count();
                if handshakes != awaiting as usize {
                    return Err(format!(
                        "awaiting {awaiting} acks but {handshakes} handshake \
                         message(s) in flight"
                    ));
                }
            }
        }
        if s.recreating.is_none()
            && s.net
                .iter()
                .any(|m| matches!(m, TMsg::RecreateInval { .. } | TMsg::RecreateAck { .. }))
        {
            return Err("recreation handshake in flight outside a recreation".into());
        }
        for (i, nd) in s.nodes.iter().enumerate() {
            // Coherence invariant / serial view: every readable copy holds
            // the last written value.
            if nd.tokens >= 1 && nd.data && nd.val != s.current {
                return Err(format!(
                    "serial view: node {i} readable with v{} but current is v{}",
                    nd.val, s.current
                ));
            }
            if nd.tokens == 0 && nd.data {
                return Err(format!("node {i} keeps data without tokens"));
            }
            if nd.owner && !nd.data {
                return Err(format!("node {i} owns without data"));
            }
        }
        // Owner messages must carry data.
        for m in &s.net {
            if let TMsg::Tokens {
                owner: true,
                data: false,
                ..
            } = m
            {
                return Err("owner token in flight without data".into());
            }
        }
        // One writer XOR multiple readers: implied by counting; check the
        // explicit form anyway.
        let writers = s.nodes.iter().filter(|n| n.tokens == self.p.tokens).count();
        let readers = s.nodes.iter().filter(|n| n.tokens >= 1).count();
        if writers == 1 && readers > 1 {
            return Err("writer coexists with another reader".into());
        }
        Ok(())
    }

    fn is_quiescent(&self, s: &TState) -> bool {
        s.net.is_empty() && s.my_req.iter().all(Option::is_none) && s.recreating.is_none()
    }

    /// Cache-permutation quotient — **safety-only substrate only**. In
    /// that mode every rule, the invariant, and quiescence treat caches
    /// exchangeably (the nondeterministic policy interface quantifies
    /// over all of them uniformly), so relabelling caches maps runs to
    /// runs. The persistent-request modes are *not* exchangeable: both
    /// activation mechanisms resolve races by fixed lowest-index
    /// priority (`dist_active`/`arb_known`), so a relabelled state can
    /// take different transitions — there the canonical form is the
    /// identity. See DESIGN.md §17.
    fn canonicalize(&self, s: &TState) -> TState {
        if self.p.mode != SubstrateMode::SafetyOnly {
            return s.clone();
        }
        let mut best = s.clone();
        for perm in &permutations(self.p.caches)[1..] {
            let t = self.permute(s, perm);
            if t < best {
                best = t;
            }
        }
        best
    }

    /// Footprints over the resource universe: bit *i* = node *i* (its
    /// `NodeSt`, serial, table row, outstanding request), plus the
    /// budget and global-control bits below. The one ample-eligible
    /// class is recreation-ack delivery (class 0): acks pairwise
    /// commute (each removes a distinct message and decrements the
    /// awaited count), every other control action carries the control
    /// budget and therefore conflicts mechanically, and the invariant
    /// never reads the in-flight ack multiset except through the
    /// handshake count the decrement preserves — the full argument is
    /// in DESIGN.md §17.
    fn action_meta(&self, _s: &TState, label: &str) -> ActionMeta {
        const TOKEN_BUDGET: u64 = 1 << 16;
        const CTL_BUDGET: u64 = 1 << 17;
        const RECREATING: u64 = 1 << 18;
        const ARB: u64 = 1 << 19;
        const SPEC: u64 = 1 << 20;
        let mem = 1u64 << self.mem();
        // `kind arg …`, where `arg` is `{i}->{j}`, `->{j}`, `c{i}` or
        // `p{i}`: one cut at the first space and one at the arrow.
        let (kind, rest) = label.split_once(' ').unwrap_or((label, ""));
        let arg = rest.split_once(' ').map_or(rest, |(arg, _)| arg);
        let (before, after) = match arg.split_once('-') {
            Some((before, after)) => (before, after.strip_prefix('>')),
            None => (arg, None),
        };
        let index = |w: &str| w.parse::<u64>().ok();
        // A node's bit, or every resource when the index is missing.
        let node = |i: Option<u64>| i.map_or(u64::MAX, |i| 1 << i);
        let src = || node(index(before));
        let dst = || node(after.and_then(index).filter(|&d| d < self.n_nodes() as u64));
        let tagged = || node(arg.strip_prefix(['c', 'p']).and_then(index));
        let both = |bits: u64| ActionMeta::rw(bits, bits);
        match kind {
            "send-all" | "send-1" | "writeback" | "forward" => both(src() | TOKEN_BUDGET),
            "mem-grant" => both(mem | TOKEN_BUDGET),
            "deliver-tokens" => both(dst() | TOKEN_BUDGET),
            "deliver-stale" => ActionMeta::rw(dst() | mem | TOKEN_BUDGET, mem | TOKEN_BUDGET),
            "deliver-inval" => both(dst() | mem | CTL_BUDGET),
            "deliver-ack" => ActionMeta {
                reads: CTL_BUDGET | RECREATING,
                writes: CTL_BUDGET | RECREATING,
                class: Some(0),
            },
            "lose" => ActionMeta::rw(mem | TOKEN_BUDGET | RECREATING, TOKEN_BUDGET | RECREATING),
            "recreate-start" => both(mem | RECREATING | CTL_BUDGET),
            "recreate-done" => ActionMeta::rw(mem | RECREATING | TOKEN_BUDGET, mem | RECREATING),
            "write" => both(tagged() | SPEC),
            "issue" => both(tagged() | CTL_BUDGET),
            "complete" => both(tagged() | CTL_BUDGET | SPEC),
            "deliver-activate"
            | "deliver-deactivate"
            | "deliver-arb-activate"
            | "deliver-arb-deactivate" => both(dst() | CTL_BUDGET),
            "arb-request" => both(ARB | mem | CTL_BUDGET),
            // `arb-done` edits the queue, every table, and filters the
            // net wholesale — opaque.
            _ => ActionMeta::OPAQUE,
        }
    }
}

impl TokenModel {
    /// The arbiter-activated request as known *locally* at `node`.
    fn arb_known(&self, s: &TState, node: usize) -> Option<(u8, PKind)> {
        s.tables[node]
            .iter()
            .enumerate()
            .find_map(|(p, e)| e.map(|e| (p as u8, e.kind)))
    }

    /// Applies a cache permutation `perm` (memory fixed): node state,
    /// serials, outstanding requests, table rows *and* columns, arbiter
    /// bookkeeping, and every message's node fields move together, so
    /// the result is the same global state with caches relabelled.
    fn permute(&self, s: &TState, perm: &[usize]) -> TState {
        let nc = self.p.caches;
        let node_map = |i: usize| if i < nc { perm[i] } else { i };
        let mut t = s.clone();
        for (i, &to) in perm.iter().enumerate() {
            t.nodes[to] = s.nodes[i];
            t.serials[to] = s.serials[i];
            t.my_req[to] = s.my_req[i];
        }
        for i in 0..self.n_nodes() {
            for (p, &to) in perm.iter().enumerate() {
                t.tables[node_map(i)][to] = s.tables[i][p];
            }
        }
        t.arb_queue = s
            .arb_queue
            .iter()
            .map(|&(p, k)| (perm[p as usize] as u8, k))
            .collect();
        t.arb_current = s.arb_current.map(|(p, k)| (perm[p as usize] as u8, k));
        let map_dst = |d: u8| node_map(d as usize) as u8;
        let map_proc = |p: u8| perm[p as usize] as u8;
        for m in &mut t.net {
            match m {
                TMsg::Tokens { dst, .. } | TMsg::RecreateInval { dst, .. } => *dst = map_dst(*dst),
                TMsg::RecreateAck { .. } => {}
                TMsg::Activate { dst, proc, .. }
                | TMsg::Deactivate { dst, proc }
                | TMsg::ArbActivate { dst, proc, .. }
                | TMsg::ArbDeactivate { dst, proc } => {
                    *dst = map_dst(*dst);
                    *proc = map_proc(*proc);
                }
                TMsg::ArbRequest { proc, .. } | TMsg::ArbDone { proc } => *proc = map_proc(*proc),
            }
        }
        t.net.sort();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_parallel, CheckOptions};

    #[test]
    fn safety_substrate_verifies() {
        let m = TokenModel::new(TokenModelParams::small(SubstrateMode::SafetyOnly));
        let r = check_parallel(&m, &CheckOptions::default()).expect("safety substrate must verify");
        assert!(r.states > 100, "suspiciously small space: {}", r.states);
    }

    #[test]
    fn distributed_substrate_verifies() {
        let m = TokenModel::new(TokenModelParams::small(SubstrateMode::Distributed));
        let r = check_parallel(&m, &CheckOptions::default()).expect("dst substrate must verify");
        assert!(r.progress_checked);
    }

    #[test]
    fn arbiter_substrate_verifies() {
        let m = TokenModel::new(TokenModelParams::small(SubstrateMode::Arbiter));
        let r = check_parallel(&m, &CheckOptions::default()).expect("arb substrate must verify");
        assert!(r.states > 100);
    }

    #[test]
    fn recovery_substrate_verifies() {
        let m = TokenModel::new(TokenModelParams::small_recovery(SubstrateMode::SafetyOnly));
        let r =
            check_parallel(&m, &CheckOptions::default()).expect("recovery substrate must verify");
        assert!(r.progress_checked, "EF-quiescence must hold under loss");
        assert!(r.states > 100, "suspiciously small space: {}", r.states);
    }

    #[test]
    fn recovery_reaches_every_recreation_kind() {
        let m = TokenModel::new(TokenModelParams::small_recovery(SubstrateMode::SafetyOnly));
        let kinds = check_parallel(&m, &CheckOptions::default())
            .expect("recovery substrate must verify")
            .kinds;
        for k in [
            "lose",
            "recreate-start",
            "deliver-inval",
            "deliver-ack",
            "deliver-stale",
            "recreate-done",
        ] {
            assert!(
                kinds.contains(k),
                "recovery universe missing {k}: {kinds:?}"
            );
        }
    }

    /// Tokens that vanish without a lost-ledger entry must break the
    /// per-epoch conservation invariant.
    #[test]
    fn invariant_rejects_unledgered_loss() {
        let m = TokenModel::new(TokenModelParams::small_recovery(SubstrateMode::SafetyOnly));
        let mut s = m.initial().remove(0);
        s.nodes[m.mem()].tokens -= 1; // destroyed with no ledger entry
        let err = m.invariant(&s).unwrap_err();
        assert!(err.contains("conservation"), "{err}");
    }

    /// A bundle claiming a serial the authority never minted is
    /// inadmissible.
    #[test]
    fn invariant_rejects_future_serial_bundle() {
        let m = TokenModel::new(TokenModelParams::small_recovery(SubstrateMode::SafetyOnly));
        let mut s = m.initial().remove(0);
        s.nodes[m.mem()].tokens -= 1;
        s.net.push(TMsg::Tokens {
            dst: 0,
            count: 1,
            owner: false,
            data: false,
            val: 0,
            serial: 3,
        });
        let err = m.invariant(&s).unwrap_err();
        assert!(err.contains("future serial"), "{err}");
    }

    /// Every shipped configuration fits the inline state, and so does
    /// each mode at the four-cache limit.
    #[test]
    fn shipped_and_four_cache_configurations_fit() {
        for mode in [
            SubstrateMode::SafetyOnly,
            SubstrateMode::Distributed,
            SubstrateMode::Arbiter,
        ] {
            for p in [
                TokenModelParams::small(mode),
                TokenModelParams::small_recovery(mode),
                TokenModelParams {
                    caches: MAX_CACHES,
                    tokens: 6,
                    ..TokenModelParams::small_recovery(mode)
                },
            ] {
                assert!(p.net_bound() <= NET_CAP, "{p:?}");
                let s = TokenModel::new(p).initial().remove(0);
                assert_eq!(s.nodes.len(), p.caches + 1);
                assert_eq!(s.tables.len(), p.caches + 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 4 caches")]
    fn rejects_more_than_four_caches() {
        let _ = TokenModel::new(TokenModelParams {
            caches: 5,
            tokens: 8,
            ..TokenModelParams::small(SubstrateMode::SafetyOnly)
        });
    }

    #[test]
    #[should_panic(expected = "max_serials is at most 3")]
    fn rejects_more_serials_than_the_ledger_holds() {
        let _ = TokenModel::new(TokenModelParams {
            max_serials: 4,
            ..TokenModelParams::small_recovery(SubstrateMode::SafetyOnly)
        });
    }

    #[test]
    #[should_panic(expected = "exceeds the 12-message capacity")]
    fn rejects_a_net_bound_above_capacity() {
        let _ = TokenModel::new(TokenModelParams {
            max_inflight: 9,
            ..TokenModelParams::small_recovery(SubstrateMode::Distributed)
        });
    }

    #[test]
    #[should_panic(expected = "arbiter queue bound needs max_ctl_inflight <= 1")]
    fn rejects_an_arbiter_queue_without_a_bound() {
        let _ = TokenModel::new(TokenModelParams {
            max_ctl_inflight: 2,
            ..TokenModelParams::small(SubstrateMode::Arbiter)
        });
    }

    #[test]
    #[should_panic(expected = "need T > holders")]
    fn rejects_too_few_tokens() {
        let _ = TokenModel::new(TokenModelParams {
            tokens: 3,
            ..TokenModelParams::small(SubstrateMode::SafetyOnly)
        });
    }

    /// The footprint of every label shape `successors` emits, on two
    /// caches (nodes 0 and 1, memory node 2), plus an out-of-range
    /// destination and a label no rule emits.
    #[test]
    fn action_meta_reads_every_label_shape() {
        const TB: u64 = 1 << 16; // token budget
        const CTL: u64 = 1 << 17; // control budget
        const REC: u64 = 1 << 18; // recreation in progress
        const ARB: u64 = 1 << 19; // arbiter queue and current request
        const SPEC: u64 = 1 << 20; // spec variables
        const MEM: u64 = 1 << 2;
        let rw = ActionMeta::rw;
        let m = TokenModel::new(TokenModelParams::small_recovery(SubstrateMode::Arbiter));
        let s = m.initial().remove(0);
        let table = [
            ("send-all 0->1", rw(0b01 | TB, 0b01 | TB)),
            ("send-1 1->2 data=true", rw(0b10 | TB, 0b10 | TB)),
            ("mem-grant ->1", rw(MEM | TB, MEM | TB)),
            ("writeback 1->mem", rw(0b10 | TB, 0b10 | TB)),
            ("deliver-stale ->0", rw(0b01 | MEM | TB, MEM | TB)),
            ("deliver-tokens ->2", rw(MEM | TB, MEM | TB)),
            ("deliver-inval ->1", rw(0b10 | MEM | CTL, 0b10 | MEM | CTL)),
            (
                "deliver-ack s1",
                ActionMeta {
                    reads: CTL | REC,
                    writes: CTL | REC,
                    class: Some(0),
                },
            ),
            ("deliver-activate p0->1", rw(0b10 | CTL, 0b10 | CTL)),
            ("deliver-deactivate p1->0", rw(0b01 | CTL, 0b01 | CTL)),
            ("arb-request p1", rw(ARB | MEM | CTL, ARB | MEM | CTL)),
            ("deliver-arb-activate p0->2", rw(MEM | CTL, MEM | CTL)),
            ("arb-done p0", ActionMeta::OPAQUE),
            ("deliver-arb-deactivate p1->0", rw(0b01 | CTL, 0b01 | CTL)),
            ("lose ->1", rw(MEM | TB | REC, TB | REC)),
            ("recreate-start", rw(MEM | REC | CTL, MEM | REC | CTL)),
            ("recreate-done", rw(MEM | REC | TB, MEM | REC)),
            ("write c1 v1", rw(0b10 | SPEC, 0b10 | SPEC)),
            ("issue c0 Read", rw(0b01 | CTL, 0b01 | CTL)),
            ("forward 2->p0", rw(MEM | TB, MEM | TB)),
            (
                "complete c1 Write",
                rw(0b10 | CTL | SPEC, 0b10 | CTL | SPEC),
            ),
            // A destination past the last node names no node: every
            // resource.
            ("deliver-tokens ->3", rw(u64::MAX, u64::MAX)),
            ("deliver-activate p0->3", rw(u64::MAX, u64::MAX)),
            ("no-such-rule 0->1", ActionMeta::OPAQUE),
        ];
        for (label, want) in table {
            assert_eq!(m.action_meta(&s, label), want, "{label}");
        }
    }

    /// Mutation test: breaking conservation (a node that duplicates its
    /// tokens on send) must be caught. We simulate by checking that the
    /// invariant rejects a corrupted state.
    #[test]
    fn invariant_rejects_forged_tokens() {
        let m = TokenModel::new(TokenModelParams::small(SubstrateMode::SafetyOnly));
        let mut s = m.initial().remove(0);
        s.nodes[0].tokens = 1; // forged: memory still has all T
        s.nodes[0].data = true;
        assert!(m.invariant(&s).is_err());
    }

    #[test]
    fn invariant_rejects_stale_readable_copy() {
        let m = TokenModel::new(TokenModelParams::small(SubstrateMode::SafetyOnly));
        let mut s = m.initial().remove(0);
        // Move one token + stale data to cache 0, pretend a write happened.
        s.nodes[m.mem()].tokens -= 1;
        s.nodes[0] = NodeSt {
            tokens: 1,
            owner: false,
            data: true,
            val: 0,
        };
        s.current = 1;
        s.writes = 1;
        s.nodes[m.mem()].val = 1;
        let err = m.invariant(&s).unwrap_err();
        assert!(err.contains("serial view"), "{err}");
    }
}
