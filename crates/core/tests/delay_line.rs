//! The delay line against a model: a `VecDeque` of whole packets bounded
//! by packet count alone, the line as it was before it became a byte ring.
//! For packets of at most one slot ([`SLOT_BYTES`]) the ring's byte bound
//! never overwrites before its packet bound does, so every diversion must
//! return exactly the model's history. Replayed packets keep their place
//! in the model (`None`) as they keep their slot in the ring, and the
//! diverted set is modelled with its FIFO bound under both policies.
//!
//! `PROPTEST_RNG_SEED=<u64>` draws fresh cases; a failure prints the seed
//! that replays it.

use std::collections::VecDeque;
use std::net::Ipv4Addr;

use proptest::prelude::*;
use sd_flow::FlowKey;
use splitdetect::divert::{DiversionManager, EvictionPolicy, SLOT_BYTES};

fn key(n: u32) -> FlowKey {
    FlowKey::from_endpoints(
        6,
        (Ipv4Addr::from(0x0a00_0000 | n), 1000 + n as u16),
        (Ipv4Addr::from(0x0a01_0001u32), 80),
    )
    .0
}

/// The reference line and diverted set.
struct Model {
    line: VecDeque<(FlowKey, Option<Vec<u8>>)>,
    delay_cap: usize,
    diverted: VecDeque<FlowKey>,
    max_diverted: usize,
    policy: EvictionPolicy,
}

impl Model {
    fn record(&mut self, key: FlowKey, packet: &[u8]) {
        if self.delay_cap == 0 {
            return;
        }
        if self.line.len() == self.delay_cap {
            self.line.pop_front();
        }
        self.line.push_back((key, Some(packet.to_vec())));
    }

    fn divert(&mut self, key: FlowKey) -> Vec<Vec<u8>> {
        if self.diverted.contains(&key) {
            return Vec::new();
        }
        if self.diverted.len() >= self.max_diverted {
            match self.policy {
                EvictionPolicy::EvictOldest => {
                    self.diverted.pop_front();
                }
                EvictionPolicy::RefuseNew => return Vec::new(),
            }
        }
        self.diverted.push_back(key);
        self.line
            .iter_mut()
            .filter(|(k, _)| *k == key)
            .filter_map(|(_, p)| p.take())
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any record/divert sequence of packets of at most one slot: the ring
    /// replays what the packet-bounded FIFO replays, oldest first.
    #[test]
    fn ring_replays_what_the_packet_fifo_replays(
        delay_cap in 0usize..12,
        max_diverted in 1usize..5,
        refuse_new in any::<bool>(),
        ops in prop::collection::vec((0u8..5, 0u32..6, 0usize..=SLOT_BYTES, any::<u8>()), 1..300),
    ) {
        let policy = if refuse_new { EvictionPolicy::RefuseNew } else { EvictionPolicy::EvictOldest };
        let mut ring = DiversionManager::with_policy(delay_cap, max_diverted, policy);
        let mut model = Model {
            line: VecDeque::new(),
            delay_cap,
            diverted: VecDeque::new(),
            max_diverted,
            policy,
        };
        let footprint = ring.memory_bytes();
        let (mut recorded, mut replayed) = (0u64, 0u64);
        for (op, flow, len, fill) in ops {
            let k = key(flow);
            if op == 0 {
                let history = ring.divert(k);
                replayed += history.len() as u64;
                prop_assert_eq!(history, model.divert(k), "divert of flow {}", flow);
            } else {
                let packet: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                ring.record(k, &packet);
                model.record(k, &packet);
                recorded += 1;
            }
            for f in 0..6 {
                prop_assert_eq!(ring.is_diverted(&key(f)), model.diverted.contains(&key(f)));
            }
            prop_assert_eq!(
                ring.memory_bytes(),
                footprint + model.diverted.len() * (2 * FlowKey::WIRE_BYTES + 8),
                "the line's footprint is constant"
            );
        }
        let stats = ring.stats();
        prop_assert_eq!(stats.recorded_packets, recorded);
        prop_assert_eq!(stats.replayed_packets, replayed);
    }
}
