//! The simulation kernel: components, message transport, and the run loop.

use std::any::Any;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::time::Instant;

use crate::profile::{HostProfiler, ProfilerHandle};
use crate::queue::{EventKind, EventQueue, QueuedEvent};
use crate::stats::Stats;
use crate::time::{Dur, Time};

/// Identifies a component registered with a [`Kernel`].
///
/// Node ids are dense indices assigned in registration order; system
/// builders lay out ids deterministically so components can address each
/// other before construction completes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The transport's verdict on a message hand-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Deliver at the given time.
    At(Time),
    /// The interconnect lost the message (fault injection); it is never
    /// enqueued, consumes no bandwidth, and is not charged to traffic.
    Dropped,
}

/// Computes message delivery times, modelling latency, bandwidth occupancy
/// and traffic accounting.
///
/// The interconnect crate provides the real implementation; tests can use
/// [`InstantTransport`].
pub trait Transport<M> {
    /// Returns the time at which `msg`, sent from `src` at `now`, arrives at
    /// `dst`. Implementations may mutate internal occupancy state and
    /// traffic statistics.
    fn deliver_at(&mut self, now: Time, src: NodeId, dst: NodeId, msg: &M) -> Time;

    /// Like [`deliver_at`](Transport::deliver_at), but may also decide to
    /// lose the message entirely. The default implementation never drops,
    /// so transports without fault injection behave exactly as before.
    fn dispatch(&mut self, now: Time, src: NodeId, dst: NodeId, msg: &M) -> Delivery {
        Delivery::At(self.deliver_at(now, src, dst, msg))
    }
}

/// A [`Transport`] with a fixed latency and infinite bandwidth; for tests.
#[derive(Debug, Clone, Copy)]
pub struct InstantTransport {
    /// One-way latency applied to every message.
    pub latency: Dur,
}

impl<M> Transport<M> for InstantTransport {
    fn deliver_at(&mut self, now: Time, _src: NodeId, _dst: NodeId, _msg: &M) -> Time {
        now + self.latency
    }
}

/// A simulated hardware unit (cache controller, memory controller,
/// processor sequencer, ...).
///
/// Components react to delivered messages and to self-scheduled wakeups;
/// they never block. The `as_any` methods allow system harnesses to downcast
/// components after a run to harvest results.
pub trait Component<M>: 'static {
    /// Handles a message delivered from `src`.
    fn on_msg(&mut self, src: NodeId, msg: M, ctx: &mut Ctx<'_, M>);

    /// Handles a wakeup previously scheduled with [`Ctx::wake_in`].
    fn on_wake(&mut self, tag: u64, ctx: &mut Ctx<'_, M>);

    /// Upcast for downcasting in harnesses. Implement as `self`.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for downcasting in harnesses. Implement as `self`.
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// A short, static label for this component's *kind* (`"l1"`,
    /// `"mem"`, `"seq"`, ...), used by the host-time profiler to
    /// attribute handler wall-clock per controller kind. The default is
    /// deliberately generic so existing components keep working.
    fn kind(&self) -> &'static str {
        "component"
    }
}

/// An observer the kernel samples at a fixed *simulated-time* period
/// during [`Kernel::run_watched`]; the hook behind the telemetry
/// sampler in `tokencmp-system`.
///
/// Before the kernel processes an event at time `t`, every due sample
/// point `at <= t` fires (multiple, if an event gap spans several
/// periods), so sample times form a deterministic arithmetic sequence
/// regardless of event spacing. Monitors get `&Kernel` — they can read
/// queue depth, pending events, components, and stats, but cannot
/// perturb the simulation.
pub trait KernelMonitor<M> {
    /// Takes one sample. `at` is the nominal sample time (the kernel's
    /// own clock still reads the previous event's time).
    fn sample(&mut self, at: Time, kernel: &Kernel<M>);
}

struct MonitorSlot<M> {
    period: Dur,
    next_due: Time,
    monitor: Rc<RefCell<dyn KernelMonitor<M>>>,
}

/// The per-event view a component gets of the kernel: the clock, its own
/// id, message sending, and wakeup scheduling.
pub struct Ctx<'a, M> {
    /// Current simulated time.
    pub now: Time,
    /// The id of the component handling this event.
    pub self_id: NodeId,
    /// Shared statistics registry.
    pub stats: &'a mut Stats,
    queue: &'a mut EventQueue<M>,
    transport: &'a mut dyn Transport<M>,
    stopped: &'a mut bool,
    last_progress: &'a mut Time,
    /// Scratch for the surviving copies of a [`send_all_after`](Ctx::send_all_after).
    fan_buf: &'a mut Vec<(Time, NodeId)>,
    /// Set only while the host-time profiler is sampling *this* event;
    /// the send/wake paths then time their dispatch and push scopes.
    profiler: Option<&'a RefCell<HostProfiler>>,
}

impl<M> Ctx<'_, M> {
    /// Sends `msg` to `dst` now; arrival time comes from the transport.
    pub fn send(&mut self, dst: NodeId, msg: M) {
        self.send_after(Dur::ZERO, dst, msg);
    }

    /// Sends `msg` to `dst` after a local processing delay of `delay`
    /// (e.g. a cache tag-array access before the reply hits the wire).
    ///
    /// The transport may drop the message (fault injection), in which case
    /// it is silently discarded — recovery is the protocol's job.
    pub fn send_after(&mut self, delay: Dur, dst: NodeId, msg: M) {
        let depart = self.now + delay;
        let src = self.self_id;
        let Some(prof) = self.profiler else {
            match self.transport.dispatch(depart, src, dst, &msg) {
                Delivery::At(arrive) => {
                    debug_assert!(arrive >= depart);
                    self.queue.push(arrive, dst, EventKind::Msg { src, msg });
                }
                Delivery::Dropped => {}
            }
            return;
        };
        let t0 = Instant::now();
        let verdict = self.transport.dispatch(depart, src, dst, &msg);
        let t1 = Instant::now();
        let push_ns = match verdict {
            Delivery::At(arrive) => {
                debug_assert!(arrive >= depart);
                self.queue.push(arrive, dst, EventKind::Msg { src, msg });
                t1.elapsed().as_nanos() as u64
            }
            Delivery::Dropped => 0,
        };
        prof.borrow_mut()
            .add_send(t1.duration_since(t0).as_nanos() as u64, push_ns);
    }

    /// Sends one copy of `msg` to every node of `dsts` now.
    pub fn send_all(&mut self, dsts: impl IntoIterator<Item = NodeId>, msg: M) {
        self.send_all_after(Dur::ZERO, dsts, msg);
    }

    /// Sends one copy of `msg` to every node of `dsts` after a local
    /// processing delay of `delay` — a broadcast.
    ///
    /// Each copy goes through the transport in `dsts` order, and takes
    /// the sequence number, exactly as a [`send_after`](Self::send_after)
    /// loop over `dsts` would, so delivery order is the same; a dropped
    /// copy takes none. The queue stores the surviving copies as one
    /// fan-out ([`EventQueue::push_fan`]). Under profiling the call is
    /// one send: one dispatch scope over all its transport calls and one
    /// push scope for the fan-out.
    pub fn send_all_after(&mut self, delay: Dur, dsts: impl IntoIterator<Item = NodeId>, msg: M) {
        let depart = self.now + delay;
        let src = self.self_id;
        let t0 = self.profiler.map(|_| Instant::now());
        self.fan_buf.clear();
        for dst in dsts {
            if let Delivery::At(arrive) = self.transport.dispatch(depart, src, dst, &msg) {
                debug_assert!(arrive >= depart);
                self.fan_buf.push((arrive, dst));
            }
        }
        let t1 = self.profiler.map(|_| Instant::now());
        self.queue.push_fan(src, msg, self.fan_buf);
        if let (Some(prof), Some(t0), Some(t1)) = (self.profiler, t0, t1) {
            prof.borrow_mut().add_send(
                t1.duration_since(t0).as_nanos() as u64,
                t1.elapsed().as_nanos() as u64,
            );
        }
    }

    /// Schedules a wakeup for this component `delay` from now.
    pub fn wake_in(&mut self, delay: Dur, tag: u64) {
        self.wake_at(self.now + delay, tag);
    }

    /// Schedules a wakeup for this component at absolute time `at`
    /// (clamped to now).
    pub fn wake_at(&mut self, at: Time, tag: u64) {
        let id = self.self_id;
        let Some(prof) = self.profiler else {
            self.queue
                .push(at.max(self.now), id, EventKind::Wake { tag });
            return;
        };
        let t0 = Instant::now();
        self.queue
            .push(at.max(self.now), id, EventKind::Wake { tag });
        prof.borrow_mut().add_push(t0.elapsed().as_nanos() as u64);
    }

    /// Requests that the kernel stop after the current event.
    pub fn stop(&mut self) {
        *self.stopped = true;
    }

    /// Marks forward progress (e.g. a sequencer committing a memory
    /// operation), resetting the watchdog of [`Kernel::run_watched`].
    pub fn progress(&mut self) {
        *self.last_progress = self.now;
    }
}

/// How a [`Kernel::run`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// A component called [`Ctx::stop`].
    Stopped,
    /// The event queue drained.
    Idle,
    /// The event budget was exhausted — almost always a protocol livelock
    /// or a missing termination condition.
    EventLimit,
    /// Simulated time passed the configured horizon.
    TimeLimit,
    /// The progress watchdog fired: no component called [`Ctx::progress`]
    /// for a full stall window of simulated time ([`Kernel::run_watched`]).
    /// Unlike [`RunOutcome::EventLimit`], this catches a livelock after a
    /// bounded amount of *simulated time* rather than after billions of
    /// events.
    Stalled,
}

/// The discrete-event simulator: a clock, an event queue, a transport, and
/// a set of components.
pub struct Kernel<M> {
    time: Time,
    queue: EventQueue<M>,
    components: Vec<Box<dyn Component<M>>>,
    transport: Box<dyn Transport<M>>,
    stats: Stats,
    stopped: bool,
    events_processed: u64,
    last_progress: Time,
    monitor: Option<MonitorSlot<M>>,
    /// Mirror of `monitor`'s `next_due` (`Time::MAX` when unmonitored):
    /// the run loop compares against this plain field on every event
    /// instead of deref-ing the slot.
    monitor_due: Time,
    profiler: Option<ProfilerHandle>,
    /// Events until the next stride-sampled one; kept here as a plain
    /// integer so skipped events never borrow the profiler's `RefCell`.
    prof_countdown: u32,
    /// Skipped events not yet folded into the profiler's event count.
    prof_skipped: u64,
    /// Backing store of [`Ctx`]'s broadcast scratch, kept across events.
    fan_buf: Vec<(Time, NodeId)>,
}

impl<M: Clone + 'static> Kernel<M> {
    /// Creates a kernel using the given transport.
    pub fn new(transport: Box<dyn Transport<M>>) -> Kernel<M> {
        Kernel {
            time: Time::ZERO,
            queue: EventQueue::new(),
            components: Vec::new(),
            transport,
            stats: Stats::new(),
            stopped: false,
            events_processed: 0,
            last_progress: Time::ZERO,
            monitor: None,
            monitor_due: Time::MAX,
            profiler: None,
            prof_countdown: 0,
            prof_skipped: 0,
            fan_buf: Vec::new(),
        }
    }

    /// Installs a sim-time telemetry monitor, sampled every `period` of
    /// simulated time during [`run_watched`](Kernel::run_watched)
    /// (first sample at the current time). Replaces any prior monitor.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero (the sample loop would never advance).
    pub fn set_monitor(&mut self, period: Dur, monitor: Rc<RefCell<dyn KernelMonitor<M>>>) {
        assert!(period > Dur::ZERO, "monitor period must be positive");
        self.monitor = Some(MonitorSlot {
            period,
            next_due: self.time,
            monitor,
        });
        self.monitor_due = self.time;
    }

    /// Installs the host-time self-profiler; the kernel stride-samples
    /// event scopes into it (see [`HostProfiler`]).
    pub fn set_profiler(&mut self, profiler: ProfilerHandle) {
        self.profiler = Some(profiler);
        self.prof_countdown = 0;
        self.prof_skipped = 0;
    }

    /// Number of pending events — the sampler's queue-depth gauge.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Fires every monitor sample point due at or before `upto`.
    fn run_monitor(&mut self, upto: Time) {
        loop {
            let (due, monitor) = match &self.monitor {
                Some(slot) if slot.next_due <= upto => (slot.next_due, slot.monitor.clone()),
                _ => return,
            };
            // The Rc clone keeps the borrow of `self.monitor` out of
            // scope while the monitor reads `&self`.
            monitor.borrow_mut().sample(due, self);
            if let Some(slot) = &mut self.monitor {
                slot.next_due = due + slot.period;
                self.monitor_due = slot.next_due;
            }
        }
    }

    /// Creates a kernel whose transport delivers instantly (for tests).
    pub fn new_instant() -> Kernel<M> {
        Kernel::new(Box::new(InstantTransport { latency: Dur::ZERO }))
    }

    /// Registers a component, returning its id (dense, in order).
    pub fn add_component<C: Component<M>>(&mut self, c: C) -> NodeId {
        let id = NodeId(self.components.len() as u32);
        self.components.push(Box::new(c));
        id
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.time
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The shared statistics registry.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Mutable access to the statistics registry.
    pub fn stats_mut(&mut self) -> &mut Stats {
        &mut self.stats
    }

    /// The transport, for harvesting traffic statistics after a run.
    pub fn transport(&self) -> &dyn Transport<M> {
        self.transport.as_ref()
    }

    /// Downcasts a registered component to a concrete type.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn component_as<C: Component<M>>(&self, id: NodeId) -> Option<&C> {
        self.components[id.index()].as_any().downcast_ref::<C>()
    }

    /// Mutably downcasts a registered component to a concrete type.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn component_as_mut<C: Component<M>>(&mut self, id: NodeId) -> Option<&mut C> {
        self.components[id.index()].as_any_mut().downcast_mut::<C>()
    }

    /// Schedules a wakeup for `dst` at `delay` from the current time; used
    /// to bootstrap components (e.g. start every processor at t=0).
    pub fn wake(&mut self, dst: NodeId, delay: Dur, tag: u64) {
        self.queue
            .push(self.time + delay, dst, EventKind::Wake { tag });
    }

    /// Injects a message from `src` to `dst` through the transport; for
    /// tests and external stimulus. The transport may drop it.
    pub fn inject(&mut self, src: NodeId, dst: NodeId, msg: M) {
        match self.transport.dispatch(self.time, src, dst, &msg) {
            Delivery::At(arrive) => self.queue.push(arrive, dst, EventKind::Msg { src, msg }),
            Delivery::Dropped => {}
        }
    }

    /// A snapshot of the pending events, one per pending copy of a
    /// broadcast, sorted by `(time, seq)` — the order they would be
    /// delivered in — used by harnesses to build an in-flight message
    /// census for watchdog diagnostics. The sort keeps stall dumps
    /// independent of the queue's layout.
    pub fn pending_events(&self) -> Vec<QueuedEvent<M>> {
        self.queue.census()
    }

    /// [`pending_events`](Self::pending_events) in the queue's layout
    /// order, for callers that only aggregate over the census (the
    /// telemetry sampler) and should not pay for the sort.
    pub fn pending_events_unordered(&self) -> Vec<QueuedEvent<M>> {
        self.queue.iter().collect()
    }

    /// Simulated time of the last [`Ctx::progress`] call (simulation start
    /// if none was ever made).
    pub fn last_progress(&self) -> Time {
        self.last_progress
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    ///
    /// # Panics
    ///
    /// Panics if an event addresses an unregistered component.
    pub fn step(&mut self) -> bool {
        if self.queue.is_empty() {
            return false;
        }
        // Stride-sampling decision: `prof` is Some only for the one event
        // in `stride` whose scopes get timed. With no profiler installed
        // this is a single branch on a None option — the zero-cost path;
        // with one installed, a skipped event costs only the countdown
        // decrement (the profiler's RefCell is not touched).
        let prof: Option<ProfilerHandle> = match &self.profiler {
            None => None,
            Some(p) => {
                if self.prof_countdown == 0 {
                    let mut pb = p.borrow_mut();
                    pb.begin_sample(self.prof_skipped);
                    self.prof_countdown = pb.stride() - 1;
                    drop(pb);
                    self.prof_skipped = 0;
                    Some(p.clone())
                } else {
                    self.prof_countdown -= 1;
                    self.prof_skipped += 1;
                    None
                }
            }
        };
        let t0 = prof.as_ref().map(|_| Instant::now());
        let ev = self.queue.pop().expect("queue non-empty");
        let t1 = prof.as_ref().map(|_| Instant::now());
        debug_assert!(ev.time >= self.time, "event in the past");
        self.time = ev.time;
        self.events_processed += 1;
        let idx = ev.dst.index();
        assert!(
            idx < self.components.len(),
            "event for unknown {:?}",
            ev.dst
        );
        let kind = self.components[idx].kind();
        let mut ctx = Ctx {
            now: self.time,
            self_id: ev.dst,
            stats: &mut self.stats,
            queue: &mut self.queue,
            transport: self.transport.as_mut(),
            stopped: &mut self.stopped,
            last_progress: &mut self.last_progress,
            fan_buf: &mut self.fan_buf,
            profiler: prof.as_deref(),
        };
        match ev.kind {
            EventKind::Msg { src, msg } => self.components[idx].on_msg(src, msg, &mut ctx),
            EventKind::Wake { tag } => self.components[idx].on_wake(tag, &mut ctx),
        }
        if let (Some(p), Some(t0), Some(t1)) = (prof, t0, t1) {
            let gross_ns = t1.elapsed().as_nanos() as u64;
            let mut p = p.borrow_mut();
            p.add_pop(t1.duration_since(t0).as_nanos() as u64);
            p.end_event(kind, gross_ns);
        }
        true
    }

    /// Runs until a stop request, an empty queue, `max_events`, or the
    /// `horizon` time limit — whichever comes first.
    pub fn run(&mut self, max_events: u64, horizon: Time) -> RunOutcome {
        self.run_watched(max_events, horizon, None)
    }

    /// [`run`](Kernel::run) with a progress watchdog: if the next pending
    /// event lies more than `stall_window` of simulated time after the
    /// last [`Ctx::progress`] call, the run stops with
    /// [`RunOutcome::Stalled`] *before* processing that event.
    ///
    /// The watchdog is purely an observer — it never reorders or drops
    /// events, so enabling it cannot change simulation results, only how
    /// a non-terminating run is reported.
    pub fn run_watched(
        &mut self,
        max_events: u64,
        horizon: Time,
        stall_window: Option<Dur>,
    ) -> RunOutcome {
        let outcome = self.run_watched_loop(max_events, horizon, stall_window);
        // Fold the tail of untimed events into the profiler so the
        // events/sampled scale covers the whole run.
        if self.prof_skipped > 0 {
            if let Some(p) = &self.profiler {
                p.borrow_mut().add_skipped(self.prof_skipped);
            }
            self.prof_skipped = 0;
        }
        outcome
    }

    fn run_watched_loop(
        &mut self,
        max_events: u64,
        horizon: Time,
        stall_window: Option<Dur>,
    ) -> RunOutcome {
        let budget_end = self.events_processed.saturating_add(max_events);
        // The window is measured from the start of this run if nothing
        // has progressed yet (relevant when resuming a stepped kernel).
        self.last_progress = self.last_progress.max(self.time);
        loop {
            if self.stopped {
                return RunOutcome::Stopped;
            }
            if self.events_processed >= budget_end {
                return RunOutcome::EventLimit;
            }
            match self.queue.next_time() {
                None => return RunOutcome::Idle,
                Some(t) if t > horizon => return RunOutcome::TimeLimit,
                Some(t) => {
                    if let Some(w) = stall_window {
                        if t.saturating_since(self.last_progress) > w {
                            return RunOutcome::Stalled;
                        }
                    }
                    if self.monitor_due <= t {
                        self.run_monitor(t);
                    }
                    self.step();
                }
            }
        }
    }

    /// Runs until the queue drains or a component stops the kernel.
    pub fn run_to_completion(&mut self) -> RunOutcome {
        self.run(u64::MAX, Time::MAX)
    }
}

impl<M> fmt::Debug for Kernel<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("time", &self.time)
            .field("components", &self.components.len())
            .field("pending", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default)]
    struct Echo {
        received: Vec<(NodeId, u64)>,
        reply_to: Option<NodeId>,
    }

    impl Component<u64> for Echo {
        fn on_msg(&mut self, src: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
            self.received.push((src, msg));
            if let Some(peer) = self.reply_to {
                if msg > 0 {
                    ctx.send(peer, msg - 1);
                }
            }
        }
        fn on_wake(&mut self, tag: u64, ctx: &mut Ctx<'_, u64>) {
            if tag == 99 {
                ctx.stop();
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn ping_pong_counts_down() {
        let mut k = Kernel::new(Box::new(InstantTransport {
            latency: Dur::from_ns(3),
        }));
        let a = k.add_component(Echo {
            reply_to: Some(NodeId(1)),
            ..Default::default()
        });
        let b = k.add_component(Echo {
            reply_to: Some(NodeId(0)),
            ..Default::default()
        });
        k.inject(a, b, 5);
        assert_eq!(k.run_to_completion(), RunOutcome::Idle);
        // 5 arrives at b; 4 at a; 3 at b; 2 at a; 1 at b; 0 at a.
        let ea = k.component_as::<Echo>(a).unwrap();
        let eb = k.component_as::<Echo>(b).unwrap();
        assert_eq!(
            ea.received.iter().map(|&(_, m)| m).collect::<Vec<_>>(),
            [4, 2, 0]
        );
        assert_eq!(
            eb.received.iter().map(|&(_, m)| m).collect::<Vec<_>>(),
            [5, 3, 1]
        );
        // 6 messages * 3 ns each.
        assert_eq!(k.now(), Time::from_ns(18));
    }

    #[test]
    fn stop_request_halts_run() {
        let mut k: Kernel<u64> = Kernel::new_instant();
        let a = k.add_component(Echo::default());
        k.wake(a, Dur::from_ns(1), 99);
        k.wake(a, Dur::from_ns(2), 99);
        assert_eq!(k.run_to_completion(), RunOutcome::Stopped);
        assert_eq!(k.now(), Time::from_ns(1));
    }

    #[test]
    fn event_limit_detects_livelock() {
        #[derive(Debug)]
        struct Spinner;
        impl Component<u64> for Spinner {
            fn on_msg(&mut self, _: NodeId, _: u64, _: &mut Ctx<'_, u64>) {}
            fn on_wake(&mut self, tag: u64, ctx: &mut Ctx<'_, u64>) {
                ctx.wake_in(Dur::from_ns(1), tag);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut k: Kernel<u64> = Kernel::new_instant();
        let a = k.add_component(Spinner);
        k.wake(a, Dur::ZERO, 0);
        assert_eq!(k.run(1_000, Time::MAX), RunOutcome::EventLimit);
        assert_eq!(k.run(u64::MAX, Time::from_ns(2_000)), RunOutcome::TimeLimit);
    }

    #[test]
    fn watchdog_stalls_a_progress_free_spin() {
        // A component that spins forever without ever calling progress():
        // the watchdog must fire after one stall window of simulated time,
        // long before the event budget is exhausted.
        #[derive(Debug)]
        struct Spinner;
        impl Component<u64> for Spinner {
            fn on_msg(&mut self, _: NodeId, _: u64, _: &mut Ctx<'_, u64>) {}
            fn on_wake(&mut self, tag: u64, ctx: &mut Ctx<'_, u64>) {
                ctx.wake_in(Dur::from_ns(1), tag);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut k: Kernel<u64> = Kernel::new_instant();
        let a = k.add_component(Spinner);
        k.wake(a, Dur::ZERO, 0);
        let outcome = k.run_watched(u64::MAX, Time::MAX, Some(Dur::from_ns(50)));
        assert_eq!(outcome, RunOutcome::Stalled);
        // Stopped at the stall window, not after billions of events.
        assert!(k.now() <= Time::from_ns(51));
        assert!(k.events_processed() < 100);
    }

    #[test]
    fn watchdog_is_reset_by_progress() {
        // Spins like above, but marks progress every 10th wake: the
        // watchdog never fires and the run ends via the event budget.
        #[derive(Debug)]
        struct Worker(u64);
        impl Component<u64> for Worker {
            fn on_msg(&mut self, _: NodeId, _: u64, _: &mut Ctx<'_, u64>) {}
            fn on_wake(&mut self, tag: u64, ctx: &mut Ctx<'_, u64>) {
                self.0 += 1;
                if self.0.is_multiple_of(10) {
                    ctx.progress();
                }
                ctx.wake_in(Dur::from_ns(1), tag);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut k: Kernel<u64> = Kernel::new_instant();
        let a = k.add_component(Worker(0));
        k.wake(a, Dur::ZERO, 0);
        let outcome = k.run_watched(1_000, Time::MAX, Some(Dur::from_ns(50)));
        assert_eq!(outcome, RunOutcome::EventLimit);
        assert!(k.last_progress() > Time::ZERO);
    }

    #[test]
    fn pending_events_expose_the_census() {
        let mut k: Kernel<u64> = Kernel::new_instant();
        let a = k.add_component(Echo::default());
        k.wake(a, Dur::from_ns(1), 7);
        k.inject(a, a, 42);
        let (mut wakes, mut msgs) = (0, 0);
        for ev in k.pending_events() {
            match ev.kind {
                EventKind::Wake { .. } => wakes += 1,
                EventKind::Msg { .. } => msgs += 1,
            }
        }
        assert_eq!((wakes, msgs), (1, 1));
    }

    #[test]
    fn pending_events_census_is_delivery_ordered() {
        // Regression: the census used to report heap-internal order, so
        // watchdog stall dumps depended on heap layout. It must be sorted
        // by (time, seq).
        let mut k: Kernel<u64> = Kernel::new_instant();
        let a = k.add_component(Echo::default());
        // Scrambled times plus same-time ties.
        for (delay, tag) in [(9, 0), (1, 1), (9, 2), (4, 3), (1, 4)] {
            k.wake(a, Dur::from_ns(delay), tag);
        }
        let order: Vec<(Time, u64)> = k.pending_events().iter().map(|e| (e.time, e.seq)).collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted, "census unsorted");
        assert_eq!(order.len(), 5);
        assert_eq!(k.pending_events_unordered().len(), 5);
    }

    #[test]
    fn dropping_transport_loses_messages_but_not_wakes() {
        struct BlackHole;
        impl Transport<u64> for BlackHole {
            fn deliver_at(&mut self, now: Time, _: NodeId, _: NodeId, _: &u64) -> Time {
                now
            }
            fn dispatch(&mut self, _: Time, _: NodeId, _: NodeId, _: &u64) -> Delivery {
                Delivery::Dropped
            }
        }
        let mut k: Kernel<u64> = Kernel::new(Box::new(BlackHole));
        let a = k.add_component(Echo::default());
        k.inject(a, a, 1);
        assert_eq!(k.pending_events().len(), 0);
        k.wake(a, Dur::from_ns(1), 0);
        assert_eq!(k.run_to_completion(), RunOutcome::Idle);
        let e = k.component_as::<Echo>(a).unwrap();
        assert!(e.received.is_empty());
    }

    #[test]
    fn monitor_samples_on_a_fixed_period() {
        // A spinner waking every 1 ns; a monitor with a 10 ns period must
        // fire at 0, 10, 20, ... regardless of event spacing.
        #[derive(Debug)]
        struct Spinner(u64);
        impl Component<u64> for Spinner {
            fn on_msg(&mut self, _: NodeId, _: u64, _: &mut Ctx<'_, u64>) {}
            fn on_wake(&mut self, tag: u64, ctx: &mut Ctx<'_, u64>) {
                self.0 += 1;
                if self.0 < 100 {
                    ctx.wake_in(Dur::from_ns(1), tag);
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        struct Recorder {
            at: Vec<Time>,
            depths: Vec<usize>,
        }
        impl KernelMonitor<u64> for Recorder {
            fn sample(&mut self, at: Time, kernel: &Kernel<u64>) {
                self.at.push(at);
                self.depths.push(kernel.queue_depth());
            }
        }
        let mut k: Kernel<u64> = Kernel::new_instant();
        let a = k.add_component(Spinner(0));
        k.wake(a, Dur::ZERO, 0);
        let rec = Rc::new(RefCell::new(Recorder {
            at: Vec::new(),
            depths: Vec::new(),
        }));
        k.set_monitor(Dur::from_ns(10), rec.clone());
        assert_eq!(k.run_to_completion(), RunOutcome::Idle);
        let rec = rec.borrow();
        // 100 wakes spanning [0, 99] ns → samples at 0, 10, ..., 90.
        assert_eq!(
            rec.at,
            (0..10).map(|i| Time::from_ns(10 * i)).collect::<Vec<_>>()
        );
        assert!(rec.depths.iter().all(|&d| d == 1));
    }

    #[test]
    fn monitor_catches_up_across_event_gaps() {
        struct Recorder(Vec<Time>);
        impl KernelMonitor<u64> for Recorder {
            fn sample(&mut self, at: Time, _: &Kernel<u64>) {
                self.0.push(at);
            }
        }
        let mut k: Kernel<u64> = Kernel::new_instant();
        let a = k.add_component(Echo::default());
        // Two events 35 ns apart: every intermediate 10 ns tick fires.
        k.wake(a, Dur::from_ns(1), 0);
        k.wake(a, Dur::from_ns(36), 0);
        let rec = Rc::new(RefCell::new(Recorder(Vec::new())));
        k.set_monitor(Dur::from_ns(10), rec.clone());
        assert_eq!(k.run_to_completion(), RunOutcome::Idle);
        assert_eq!(rec.borrow().0, [0, 10, 20, 30].map(Time::from_ns).to_vec());
    }

    #[test]
    fn profiler_attributes_component_kinds() {
        #[derive(Debug)]
        struct Named(u64);
        impl Component<u64> for Named {
            fn on_msg(&mut self, _: NodeId, _: u64, _: &mut Ctx<'_, u64>) {}
            fn on_wake(&mut self, tag: u64, ctx: &mut Ctx<'_, u64>) {
                self.0 += 1;
                if self.0 < 50 {
                    ctx.wake_in(Dur::from_ns(1), tag);
                    ctx.send(ctx.self_id, 7);
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
            fn kind(&self) -> &'static str {
                "named"
            }
        }
        let mut k: Kernel<u64> = Kernel::new_instant();
        let a = k.add_component(Named(0));
        k.wake(a, Dur::ZERO, 0);
        let prof = HostProfiler::handle(1);
        k.set_profiler(prof.clone());
        assert_eq!(k.run_to_completion(), RunOutcome::Idle);
        let report = prof.borrow().report();
        assert_eq!(report.events, k.events_processed());
        assert_eq!(report.sampled_events, report.events);
        let cats: Vec<&str> = report.entries.iter().map(|e| e.category.as_str()).collect();
        for needle in ["sched.pop", "sched.push", "net.dispatch", "handler.named"] {
            assert!(cats.contains(&needle), "missing {needle} in {cats:?}");
        }
    }

    /// Broadcasts on every wake and re-broadcasts every message with one
    /// hop fewer, to a subset of its peers picked from the payload, either
    /// as a `send_after` loop or as one `send_all_after`. Some messages
    /// also schedule a wakeup, so fans tie with pending single events.
    #[derive(Debug)]
    struct Caster {
        fan: bool,
        peers: Vec<NodeId>,
        casts: u64,
        wakes: u64,
    }

    impl Caster {
        fn cast(&mut self, msg: u64, ctx: &mut Ctx<'_, u64>) {
            let delay = Dur::from_ps(msg % 4 * 500);
            let dsts = self
                .peers
                .iter()
                .copied()
                .filter(|p| !(msg + u64::from(p.0)).is_multiple_of(3));
            self.casts += 1;
            if self.fan {
                ctx.send_all_after(delay, dsts, msg);
            } else {
                for dst in dsts {
                    ctx.send_after(delay, dst, msg);
                }
            }
        }
    }

    impl Component<u64> for Caster {
        fn on_msg(&mut self, _: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
            // Every message or wake a cast causes is a thousand lower, so
            // the script ends.
            if msg >= 1000 {
                if msg % 5 == 1 {
                    self.wakes += 1;
                    ctx.wake_in(Dur::from_ns(msg % 3), msg - 1000);
                }
                self.cast(msg - 1000 + u64::from(ctx.self_id.0), ctx);
            }
        }
        fn on_wake(&mut self, tag: u64, ctx: &mut Ctx<'_, u64>) {
            self.cast(tag, ctx);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Verdicts from a call counter, so they depend on dispatch order:
    /// one in five copies is dropped, two in five arrive on a shared
    /// 3 ns tick, the rest after 1 to 7 ns.
    struct Scripted {
        calls: u64,
        dropped: Rc<std::cell::Cell<u64>>,
    }

    impl Transport<u64> for Scripted {
        fn deliver_at(&mut self, now: Time, _: NodeId, _: NodeId, _: &u64) -> Time {
            now
        }
        fn dispatch(&mut self, now: Time, src: NodeId, dst: NodeId, msg: &u64) -> Delivery {
            self.calls += 1;
            match (self.calls * 7 + msg + u64::from(src.0 + dst.0)) % 5 {
                0 => {
                    self.dropped.set(self.dropped.get() + 1);
                    Delivery::Dropped
                }
                1 | 2 => Delivery::At(Time::from_ns(now.as_ps() / 1000 + 3)),
                _ => Delivery::At(now + Dur::from_ns(1 + (self.calls + msg) % 7)),
            }
        }
    }

    type Log = Vec<(Time, u64, NodeId, EventKind<u64>)>;

    /// Runs the caster script to completion, logging every event as it
    /// leaves the queue (the census head before each step).
    fn run_casters(fan: bool, prof: Option<ProfilerHandle>) -> (Log, Kernel<u64>, u64) {
        let dropped = Rc::default();
        let mut k: Kernel<u64> = Kernel::new(Box::new(Scripted {
            calls: 0,
            dropped: Rc::clone(&dropped),
        }));
        let peers: Vec<NodeId> = (0..5).map(NodeId).collect();
        for &id in &peers {
            k.add_component(Caster {
                fan,
                peers: peers.clone(),
                casts: 0,
                wakes: 0,
            });
            k.wake(
                id,
                Dur::from_ns(u64::from(id.0 % 2)),
                3000 + u64::from(id.0),
            );
        }
        if let Some(p) = prof {
            k.set_profiler(p);
        }
        let mut log = Log::new();
        while let Some(ev) = k.pending_events().into_iter().next() {
            log.push((ev.time, ev.seq(), ev.dst, ev.kind));
            assert!(k.step());
        }
        (log, k, dropped.get())
    }

    #[test]
    fn send_all_after_matches_a_send_after_loop() {
        let (looped, lk, dropped) = run_casters(false, None);
        let (fanned, fk, _) = run_casters(true, None);
        assert_eq!(looped, fanned, "delivery logs diverged");
        assert_eq!(lk.events_processed(), fk.events_processed());
        assert_eq!(lk.queue.next_seq(), fk.queue.next_seq());
        assert_eq!(lk.events_processed(), looped.len() as u64);
        // The script exercised drops, same-time ties and re-broadcasts.
        assert!(dropped > 0, "no copy was dropped");
        assert!(looped.windows(2).any(|w| w[0].0 == w[1].0), "no tie");
        assert!(looped.len() > 200, "script too short: {}", looped.len());
    }

    #[test]
    fn a_profiled_send_all_after_is_one_send() {
        let prof = HostProfiler::handle(1);
        let (plain, ..) = run_casters(true, None);
        let (log, k, _) = run_casters(true, Some(prof.clone()));
        assert_eq!(plain, log, "profiling perturbed the run");
        let (mut casts, mut wakes) = (0, 0);
        for id in 0..5 {
            let c = k.component_as::<Caster>(NodeId(id)).unwrap();
            casts += c.casts;
            wakes += c.wakes;
        }
        let report = prof.borrow().report();
        let calls = |cat: &str| {
            report
                .entries
                .iter()
                .find(|e| e.category == cat)
                .unwrap()
                .calls
        };
        assert_eq!(calls("net.dispatch"), casts);
        assert_eq!(calls("sched.push"), casts + wakes);
    }

    #[test]
    fn time_advances_monotonically() {
        let mut k: Kernel<u64> = Kernel::new_instant();
        let a = k.add_component(Echo::default());
        k.wake(a, Dur::from_ns(10), 0);
        k.wake(a, Dur::from_ns(5), 0);
        let mut last = Time::ZERO;
        while k.step() {
            assert!(k.now() >= last);
            last = k.now();
        }
        assert_eq!(last, Time::from_ns(10));
    }
}
