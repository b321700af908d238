//! The typed event taxonomy recorded by [`crate::trace`].

/// One kind of runtime event. The discriminants are stable (they are
/// what the trace rings store), and each kind maps to a fixed name and
/// category in the Chrome trace export.
#[repr(u32)]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A dag vertex was spawned (`spdag`); arg = vertex id.
    Spawn = 1,
    /// A continuation edge was chained (`spdag`); arg = target vertex id.
    Chain = 2,
    /// A worker stole a task; recorded as a span covering the steal
    /// hunt (steal-to-run latency); arg = victim worker id.
    Steal = 3,
    /// A worker parked after failing to find work; arg = worker id.
    Park = 4,
    /// An out-set lane table doubled; arg = the new lane count.
    LaneSplit = 5,
    /// An out-set was sealed by `finish`; arg = lanes at seal.
    Seal = 6,
    /// An out-set seal swept its lanes; recorded as a span covering the
    /// sweep; arg = tokens delivered.
    Sweep = 7,
    /// A future vertex was created; arg = future id.
    FutureCreate = 8,
    /// A vertex touched (subscribed to) a future; arg = future id.
    FutureTouch = 9,
    /// A future completed and resolved its dependents; recorded as a
    /// span covering the out-set sweep + ready pushes; arg = dependents
    /// resolved.
    FutureFulfill = 10,
    /// A strand parked itself on an unready future (`spdag`): its vertex
    /// left the executor un-retired, awaiting the fulfill handshake; arg
    /// = vertex id.
    StrandPark = 11,
}

impl EventKind {
    /// Every kind, in discriminant order.
    pub const ALL: [EventKind; 11] = [
        EventKind::Spawn,
        EventKind::Chain,
        EventKind::Steal,
        EventKind::Park,
        EventKind::LaneSplit,
        EventKind::Seal,
        EventKind::Sweep,
        EventKind::FutureCreate,
        EventKind::FutureTouch,
        EventKind::FutureFulfill,
        EventKind::StrandPark,
    ];

    /// Stable display name (also the Chrome trace event name).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Spawn => "spawn",
            EventKind::Chain => "chain",
            EventKind::Steal => "steal",
            EventKind::Park => "park",
            EventKind::LaneSplit => "lane_split",
            EventKind::Seal => "seal",
            EventKind::Sweep => "sweep",
            EventKind::FutureCreate => "future_create",
            EventKind::FutureTouch => "future_touch",
            EventKind::FutureFulfill => "future_fulfill",
            EventKind::StrandPark => "strand_park",
        }
    }

    /// Subsystem the event belongs to (the Chrome trace category).
    pub fn category(self) -> &'static str {
        match self {
            EventKind::Spawn | EventKind::Chain | EventKind::StrandPark => "spdag",
            EventKind::Steal | EventKind::Park => "sched",
            EventKind::LaneSplit | EventKind::Seal | EventKind::Sweep => "outset",
            EventKind::FutureCreate | EventKind::FutureTouch | EventKind::FutureFulfill => "future",
        }
    }

    /// Decode a stored discriminant; `None` for anything unknown (a
    /// torn or zero-initialized slot never decodes to an event).
    pub fn from_u32(v: u32) -> Option<EventKind> {
        EventKind::ALL.get(v.wrapping_sub(1) as usize).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discriminants_round_trip() {
        for k in EventKind::ALL {
            assert_eq!(EventKind::from_u32(k as u32), Some(k));
        }
        assert_eq!(EventKind::from_u32(0), None);
        assert_eq!(EventKind::from_u32(EventKind::ALL.len() as u32 + 1), None);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = EventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::ALL.len());
    }
}
