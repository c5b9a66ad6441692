//! Token-holder rules shared by L1, L2 and memory controllers.
//!
//! The correctness substrate is *flat* (§3.1): every cache — L1-D, L1-I,
//! L2 bank — and every memory controller is simply a token holder obeying
//! the same counting rules. The hierarchy only shows up in the performance
//! policy's choice of who to ask first.

use std::cell::{Ref, RefCell};
use std::rc::Rc;

use tokencmp_proto::{Block, ProcId};
use tokencmp_sim::NodeId;

use crate::msg::{ReqKind, TokenBundle, TokenMsg};
use crate::persistent::{ActiveReq, ArbNodeTable, PersistentBook};

/// Per-block token state at a holder. A line exists only while it holds at
/// least one token; holding any token implies holding valid data (caches)
/// or potentially-stale data validated by the owner token (memory).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TokenLine {
    /// Tokens held (≥ 1), including the owner token if `owner`.
    pub tokens: u32,
    /// True if the owner token is held.
    pub owner: bool,
    /// True if the data is modified relative to memory (meaningful with
    /// `owner`).
    pub dirty: bool,
    /// True if *this* holder modified the data (migratory sharing detects
    /// read-modify-write patterns from local writes, not inherited dirty
    /// data — otherwise a dirty flag block would migrate wholesale between
    /// spinning readers forever).
    pub written: bool,
}

impl TokenLine {
    /// A line created from an arriving bundle.
    pub fn from_bundle(b: TokenBundle) -> TokenLine {
        debug_assert!(b.count >= 1);
        TokenLine {
            tokens: b.count,
            owner: b.owner,
            dirty: b.owner && b.dirty,
            written: false,
        }
    }

    /// Folds an arriving bundle into this line.
    pub fn fold(&mut self, b: TokenBundle) {
        debug_assert!(b.count >= 1);
        self.tokens += b.count;
        if b.owner {
            self.owner = true;
            self.dirty = b.dirty;
        }
    }

    /// Takes every token (the line must then be dropped by the caller).
    /// `data_valid` controls whether a dataless holder (memory without the
    /// owner token) may claim to carry data.
    pub fn take_all(&mut self, data_valid: bool) -> TokenBundle {
        let b = TokenBundle {
            count: self.tokens,
            owner: self.owner,
            // The owner token must always travel with data (§3.1).
            data: self.owner || data_valid,
            dirty: self.dirty,
        };
        self.tokens = 0;
        self.owner = false;
        self.dirty = false;
        self.written = false;
        b
    }

    /// Takes `n` non-owner tokens (keeping the owner token and at least
    /// one token behind is the caller's responsibility via `n`).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `n >= tokens` or `n == 0`.
    pub fn take_non_owner(&mut self, n: u32, data: bool) -> TokenBundle {
        debug_assert!(n >= 1 && n < self.tokens);
        self.tokens -= n;
        TokenBundle {
            count: n,
            owner: false,
            data,
            dirty: false,
        }
    }

    /// True when no tokens remain and the line must be dropped.
    pub fn is_empty(&self) -> bool {
        self.tokens == 0
    }
}

/// Parameters that shape grant decisions.
#[derive(Clone, Copy, Debug)]
pub struct GrantRules {
    /// Total tokens per block, `T`.
    pub total_tokens: u32,
    /// `C`, the number of caches on a CMP node: external read responses
    /// carry up to `C` tokens so future intra-CMP requests hit locally
    /// (§4).
    pub caches_per_cmp: u32,
    /// Migratory-sharing optimization enabled (a dirty owner holding all
    /// tokens hands everything over even on a read).
    pub migratory: bool,
}

/// Decides a cache's response to a *transient* request (§4 rules), mutating
/// the line. Returns `None` when the cache stays silent (a cache only
/// responds when it actually has tokens to give — there is no queueing or
/// blocking, unlike a conventional protocol).
pub fn transient_grant(
    line: &mut TokenLine,
    kind: ReqKind,
    external: bool,
    rules: &GrantRules,
) -> Option<TokenBundle> {
    debug_assert!(line.tokens >= 1);
    match kind {
        // Write requests: hand over everything we have; data travels with
        // the owner token.
        ReqKind::Write => Some(line.take_all(false)),
        ReqKind::Read => {
            let migratory_hit = rules.migratory
                && line.owner
                && line.dirty
                && line.written
                && line.tokens == rules.total_tokens;
            if migratory_hit {
                // Read-modify-write pattern: give read/write access at once.
                return Some(line.take_all(false));
            }
            if external {
                // A CMP answers external reads only from the owner (§4).
                if !line.owner {
                    return None;
                }
                if line.tokens >= 2 {
                    // Include up to C tokens so the requesting chip can
                    // satisfy future local readers.
                    let n = (line.tokens - 1).min(rules.caches_per_cmp);
                    Some(line.take_non_owner(n, true))
                } else {
                    // Only the owner token left: hand it (and data) over.
                    Some(line.take_all(false))
                }
            } else if line.tokens >= 2 {
                // Local read: one token plus data.
                Some(line.take_non_owner(1, true))
            } else {
                None
            }
        }
    }
}

/// Decides a *storage-level* (L2 bank / memory) response to a local or
/// memory-directed request. Differs from L1 rules in one way: a storage
/// level holding **all** tokens grants them all on a read, giving the
/// requester an E-like state so a subsequent private store hits locally
/// (the standard TokenB memory behaviour).
pub fn storage_grant(
    line: &mut TokenLine,
    kind: ReqKind,
    rules: &GrantRules,
    data_valid: bool,
) -> Option<TokenBundle> {
    debug_assert!(line.tokens >= 1);
    match kind {
        ReqKind::Write => Some(line.take_all(data_valid)),
        ReqKind::Read => {
            if line.owner && line.tokens == rules.total_tokens {
                return Some(line.take_all(data_valid));
            }
            if !data_valid && !line.owner {
                // Memory without the owner token has stale data; stay
                // silent on reads.
                return None;
            }
            if line.tokens >= 2 {
                let n = (line.tokens - 1).min(rules.caches_per_cmp);
                Some(line.take_non_owner(n, true))
            } else if line.owner {
                Some(line.take_all(data_valid))
            } else {
                None
            }
        }
    }
}

/// Decides what to forward to an active *persistent* request (§3.2),
/// mutating the line.
///
/// * Write: forward everything.
/// * Read (the new persistent **read** request): give up all but one token,
///   so read permission is never stolen from other caches; with `T` greater
///   than the number of holders, someone always has a spare token.
pub fn persistent_grant(
    line: &mut TokenLine,
    kind: ReqKind,
    data_valid: bool,
) -> Option<TokenBundle> {
    debug_assert!(line.tokens >= 1);
    match kind {
        ReqKind::Write => Some(line.take_all(data_valid)),
        ReqKind::Read => {
            if line.tokens >= 2 {
                let n = line.tokens - 1;
                Some(line.take_non_owner(n, data_valid || line.owner))
            } else {
                None
            }
        }
    }
}

/// The persistent-request bookkeeping every coherence node carries: its
/// view of the run's shared distributed-activation [`PersistentBook`] and
/// its own arbiter-activated set (only one is populated in any given run,
/// depending on the variant).
#[derive(Clone, Debug)]
pub struct PersistentState {
    node: NodeId,
    book: Rc<RefCell<PersistentBook>>,
    /// Arbiter-activated requests.
    pub arb: ArbNodeTable,
}

impl PersistentState {
    /// The state of coherence node `node`, whose distributed table lives
    /// in `book`.
    #[inline]
    pub fn new(node: NodeId, book: Rc<RefCell<PersistentBook>>) -> PersistentState {
        PersistentState {
            node,
            book,
            arb: ArbNodeTable::new(),
        }
    }

    /// The node whose table this is.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The shared book holding this node's distributed table.
    pub fn book(&self) -> Ref<'_, PersistentBook> {
        self.book.borrow()
    }

    /// The request this node should currently forward tokens to, for
    /// `block`.
    pub fn active_for(&self, block: Block) -> Option<ActiveReq> {
        self.book
            .borrow()
            .active_for(self.node, block)
            .or_else(|| self.arb.active_for(block))
    }

    /// Records an activation in this node's distributed table
    /// ([`PersistentBook::activate`]).
    pub fn activate(
        &mut self,
        proc: ProcId,
        block: Block,
        requester: NodeId,
        kind: ReqKind,
        epoch: u64,
    ) {
        let node = self.node;
        self.book
            .borrow_mut()
            .activate(node, proc, block, requester, kind, epoch);
    }

    /// Clears `proc`'s distributed entry at this node, epoch-matched
    /// ([`PersistentBook::deactivate`]).
    pub fn deactivate(&mut self, proc: ProcId, epoch: u64) -> bool {
        self.book.borrow_mut().deactivate(self.node, proc, epoch)
    }

    /// Wave-marks every remaining entry for `block` at this node.
    pub fn mark_peers(&mut self, block: Block) {
        self.book.borrow_mut().mark_peers(self.node, block);
    }

    /// True if marked entries for `block` remain at this node.
    pub fn has_marked(&self, block: Block) -> bool {
        self.book.borrow().has_marked(self.node, block)
    }

    /// Applies a persistent-protocol message to the tables. Returns the
    /// block whose forwarding state may have changed, or `None` if the
    /// message was not a persistent-table message.
    pub fn apply(&mut self, msg: &TokenMsg) -> Option<Block> {
        match *msg {
            TokenMsg::PersistentActivate {
                block,
                proc,
                requester,
                kind,
                epoch,
            } => {
                self.activate(proc, block, requester, kind, epoch);
                Some(block)
            }
            TokenMsg::PersistentDeactivate { block, proc, epoch } => {
                self.deactivate(proc, epoch);
                Some(block)
            }
            TokenMsg::ArbActivate {
                block,
                proc,
                requester,
                kind,
                epoch,
            } => {
                self.arb.activate(
                    block,
                    ActiveReq {
                        proc,
                        requester,
                        kind,
                    },
                    epoch,
                );
                Some(block)
            }
            TokenMsg::ArbDeactivate { block, proc, epoch } => {
                self.arb.deactivate(block, proc, epoch);
                Some(block)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules() -> GrantRules {
        GrantRules {
            total_tokens: 64,
            caches_per_cmp: 12,
            migratory: true,
        }
    }

    fn line(tokens: u32, owner: bool, dirty: bool) -> TokenLine {
        TokenLine {
            tokens,
            owner,
            dirty,
            written: dirty,
        }
    }

    #[test]
    fn fold_accumulates_and_tracks_owner() {
        let mut l = TokenLine::from_bundle(TokenBundle {
            count: 2,
            owner: false,
            data: true,
            dirty: false,
        });
        l.fold(TokenBundle {
            count: 3,
            owner: true,
            data: true,
            dirty: true,
        });
        assert_eq!(
            l,
            TokenLine {
                tokens: 5,
                owner: true,
                dirty: true,
                written: false,
            }
        );
    }

    #[test]
    fn write_grant_takes_everything() {
        let mut l = line(5, true, true);
        let b = transient_grant(&mut l, ReqKind::Write, false, &rules()).unwrap();
        assert_eq!(b.count, 5);
        assert!(b.owner && b.data && b.dirty);
        assert!(l.is_empty());
    }

    #[test]
    fn non_owner_write_grant_is_dataless() {
        let mut l = line(3, false, false);
        let b = transient_grant(&mut l, ReqKind::Write, true, &rules()).unwrap();
        assert_eq!(b.count, 3);
        assert!(!b.owner && !b.data);
    }

    #[test]
    fn local_read_grant_is_one_token_with_data() {
        let mut l = line(3, true, false);
        let b = transient_grant(&mut l, ReqKind::Read, false, &rules()).unwrap();
        assert_eq!(b.count, 1);
        assert!(!b.owner && b.data);
        assert_eq!(l, line(2, true, false));
    }

    #[test]
    fn single_token_cache_stays_silent_on_local_read() {
        let mut l = line(1, false, false);
        assert_eq!(
            transient_grant(&mut l, ReqKind::Read, false, &rules()),
            None
        );
        assert_eq!(l.tokens, 1);
    }

    #[test]
    fn migratory_read_hands_over_all_tokens() {
        let mut l = line(64, true, true);
        let b = transient_grant(&mut l, ReqKind::Read, false, &rules()).unwrap();
        assert_eq!(b.count, 64);
        assert!(b.owner && b.dirty);
        assert!(l.is_empty());
        // Disabled migratory: only one token moves.
        let mut l = line(64, true, true);
        let no_mig = GrantRules {
            migratory: false,
            ..rules()
        };
        let b = transient_grant(&mut l, ReqKind::Read, false, &no_mig).unwrap();
        assert_eq!(b.count, 1);
    }

    #[test]
    fn external_read_requires_owner_and_carries_c_tokens() {
        let mut l = line(20, false, false);
        assert_eq!(transient_grant(&mut l, ReqKind::Read, true, &rules()), None);
        let mut l = line(20, true, false);
        let b = transient_grant(&mut l, ReqKind::Read, true, &rules()).unwrap();
        assert_eq!(b.count, 12); // min(C, tokens-1)
        assert!(b.data && !b.owner);
        assert_eq!(l, line(8, true, false));
    }

    #[test]
    fn external_read_from_sole_owner_token_hands_over_ownership() {
        let mut l = line(1, true, false);
        let b = transient_grant(&mut l, ReqKind::Read, true, &rules()).unwrap();
        assert_eq!(b.count, 1);
        assert!(b.owner && b.data);
        assert!(l.is_empty());
    }

    #[test]
    fn storage_read_grants_exclusive_when_holding_all() {
        let mut l = line(64, true, false);
        let b = storage_grant(&mut l, ReqKind::Read, &rules(), true).unwrap();
        assert_eq!(b.count, 64);
        assert!(b.owner);
        assert!(l.is_empty());
    }

    #[test]
    fn stale_memory_stays_silent_on_read() {
        let mut l = line(5, false, false);
        assert_eq!(storage_grant(&mut l, ReqKind::Read, &rules(), false), None);
        // But it still contributes everything to a write.
        let b = storage_grant(&mut l, ReqKind::Write, &rules(), false).unwrap();
        assert_eq!(b.count, 5);
        assert!(!b.data);
    }

    #[test]
    fn persistent_read_leaves_one_token() {
        let mut l = line(5, true, false);
        let b = persistent_grant(&mut l, ReqKind::Read, true).unwrap();
        assert_eq!(b.count, 4);
        assert!(!b.owner, "owner token stays with the holder");
        assert_eq!(l, line(1, true, false));
        // With a single token, nothing is forwarded.
        assert_eq!(persistent_grant(&mut l, ReqKind::Read, true), None);
    }

    #[test]
    fn persistent_write_takes_all() {
        let mut l = line(3, true, true);
        let b = persistent_grant(&mut l, ReqKind::Write, true).unwrap();
        assert_eq!(b.count, 3);
        assert!(b.owner && b.dirty && b.data);
        assert!(l.is_empty());
    }

    /// Coherence node 0's state in a fresh 4 × 4 system's book.
    fn state() -> PersistentState {
        let layout = tokencmp_proto::Layout::new(4, 4, 4);
        let book = Rc::new(RefCell::new(PersistentBook::new(&layout)));
        PersistentState::new(layout.l1d(ProcId(0)), book)
    }

    #[test]
    fn persistent_state_applies_messages() {
        let mut p = state();
        let act = TokenMsg::PersistentActivate {
            block: Block(1),
            proc: ProcId(5),
            requester: NodeId(21),
            kind: ReqKind::Write,
            epoch: 1,
        };
        assert_eq!(p.apply(&act), Some(Block(1)));
        assert_eq!(p.active_for(Block(1)).unwrap().proc, ProcId(5));
        let deact = TokenMsg::PersistentDeactivate {
            block: Block(1),
            proc: ProcId(5),
            epoch: 1,
        };
        assert_eq!(p.apply(&deact), Some(Block(1)));
        assert_eq!(p.active_for(Block(1)), None);
        // Non-persistent messages are ignored.
        let t = TokenMsg::Transient {
            block: Block(1),
            requester: NodeId(0),
            kind: ReqKind::Read,
            external: false,
            hint: None,
        };
        assert_eq!(p.apply(&t), None);
    }

    #[test]
    fn arb_activation_also_feeds_active_for() {
        let mut p = state();
        let act = TokenMsg::ArbActivate {
            block: Block(9),
            proc: ProcId(2),
            requester: NodeId(18),
            kind: ReqKind::Read,
            epoch: 1,
        };
        p.apply(&act);
        assert_eq!(p.active_for(Block(9)).unwrap().kind, ReqKind::Read);
        p.apply(&TokenMsg::ArbDeactivate {
            block: Block(9),
            proc: ProcId(2),
            epoch: 1,
        });
        assert_eq!(p.active_for(Block(9)), None);
    }
}
