//! Discrete-event simulation kernel for the TokenCMP coherence simulator.
//!
//! This crate is the lowest layer of the TokenCMP reproduction of
//! *"Improving Multiple-CMP Systems Using Token Coherence"* (HPCA 2005).
//! It knows nothing about caches or coherence: it provides
//!
//! * a picosecond-resolution simulated clock ([`Time`], [`Dur`]),
//! * a deterministic event queue and run loop ([`Kernel`]),
//! * a component abstraction ([`Component`]) with message delivery and
//!   self-scheduled wakeups ([`Ctx`]), run as a typed node set
//!   ([`NodeSet`]) the kernel owns by value,
//! * a pluggable message transport ([`Transport`]) so the interconnect
//!   crate can model latency, bandwidth occupancy and traffic accounting,
//! * a statistics registry ([`Stats`], [`Histogram`], [`Ewma`]), and
//! * a deterministic, seedable random number generator ([`Rng`]).
//!
//! Determinism is a hard requirement: given one seed, a simulation is
//! bit-identical across runs. The event queue breaks time ties by insertion
//! sequence number, and no host randomness or wall-clock time is consulted.
//!
//! # Example
//!
//! ```
//! use tokencmp_sim::{Component, Ctx, Dur, Kernel, NodeId};
//!
//! #[derive(Debug)]
//! struct Ping { peer: NodeId, left: u32 }
//!
//! impl Component<u32> for Ping {
//!     fn on_msg(&mut self, _src: NodeId, msg: u32, ctx: &mut Ctx<'_, u32>) {
//!         if self.left > 0 {
//!             self.left -= 1;
//!             ctx.send(self.peer, msg + 1);
//!         }
//!     }
//!     fn on_wake(&mut self, _tag: u64, ctx: &mut Ctx<'_, u32>) {
//!         ctx.send(self.peer, 0);
//!     }
//! }
//!
//! // A `Vec` of one component type is a node set: node `i` is element `i`.
//! let pings = vec![Ping { peer: NodeId(1), left: 3 }, Ping { peer: NodeId(0), left: 3 }];
//! let mut k: Kernel<u32, _> = Kernel::new_instant(pings);
//! k.wake(NodeId(1), Dur::from_ns(1), 0);
//! k.run_to_completion();
//! assert!(k.nodes().iter().all(|p| p.left == 0));
//! ```

pub mod kernel;
pub mod profile;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use kernel::{
    Component, Ctx, Delivery, InstantTransport, Kernel, KernelMonitor, NodeId, NodeSet, RunOutcome,
    Transport,
};
pub use profile::{CatTotals, HostProfile, HostProfiler, ProfileEntry, ProfilerHandle};
pub use queue::{EventKind, EventQueue, QueuedEvent};
pub use rng::Rng;
pub use stats::{Ewma, Histogram, Stats};
pub use time::{Dur, Time};
