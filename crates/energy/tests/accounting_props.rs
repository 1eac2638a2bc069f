//! Randomized tests for the energy account: it agrees with a per-key map
//! model, the Table 4 breakdown always partitions the total, and cycle
//! arithmetic never underflows. Driven by the deterministic in-repo RNG
//! (fixed seeds, reproducible corpus).

use std::collections::BTreeMap;

use amnesiac_energy::{EnergyAccount, UarchEvent};
use amnesiac_isa::Category;
use amnesiac_rng::Rng;
use amnesiac_telemetry::{Json, ToJson};

const CASES: usize = 128;

fn category(idx: u8) -> Category {
    Category::ALL[(idx as usize) % Category::ALL.len()]
}

/// Random `(category index, nJ)` records.
fn records(r: &mut Rng, max_len: usize, min_nj: f64) -> Vec<(u8, f64)> {
    let len = r.range_usize(0, max_len);
    (0..len)
        .map(|_| (r.below(256) as u8, r.range_f64(min_nj, 100.0)))
        .collect()
}

/// One account charge, as the executors make them.
#[derive(Debug, Clone, Copy)]
enum Charge {
    Inst(Category, f64),
    Event(UarchEvent, f64),
}

/// A random charge stream over a random subset of categories and events.
fn charges(r: &mut Rng) -> Vec<Charge> {
    let cats: Vec<Category> = Category::ALL.into_iter().filter(|_| r.bool()).collect();
    let events: Vec<UarchEvent> = UarchEvent::ALL.into_iter().filter(|_| r.bool()).collect();
    (0..r.range_usize(0, 80))
        .filter_map(|_| {
            let nj = match r.below(4) {
                0 => 0.0,
                1 => r.range_f64(0.0, 1.0),
                _ => r.range_f64(0.0, 100.0),
            };
            if r.bool() && !cats.is_empty() {
                Some(Charge::Inst(*r.choose(&cats), nj))
            } else if !events.is_empty() {
                Some(Charge::Event(*r.choose(&events), nj))
            } else {
                None
            }
        })
        .collect()
}

/// The account as two per-key maps, each slot summed in call order.
#[derive(Debug, Default, PartialEq)]
struct MapModel {
    by_category: BTreeMap<Category, (u64, f64)>,
    by_event: BTreeMap<UarchEvent, (u64, f64)>,
}

impl MapModel {
    fn charge(&mut self, charge: Charge) {
        let slot = match charge {
            Charge::Inst(c, _) => self.by_category.entry(c).or_insert((0, 0.0)),
            Charge::Event(e, _) => self.by_event.entry(e).or_insert((0, 0.0)),
        };
        let (Charge::Inst(_, nj) | Charge::Event(_, nj)) = charge;
        slot.0 += 1;
        slot.1 += nj;
    }

    fn total_nj(&self) -> f64 {
        self.by_category.values().map(|s| s.1).sum::<f64>()
            + self.by_event.values().map(|s| s.1).sum::<f64>()
    }
}

fn build(stream: &[Charge]) -> (EnergyAccount, MapModel) {
    let mut account = EnergyAccount::new();
    let mut model = MapModel::default();
    for &charge in stream {
        match charge {
            Charge::Inst(c, nj) => account.record(c, nj),
            Charge::Event(e, nj) => account.record_event(e, nj),
        }
        model.charge(charge);
    }
    (account, model)
}

/// Keys of the JSON object at `key`.
fn json_keys(json: &Json, key: &str) -> Vec<String> {
    let fields = json.get(key).and_then(Json::as_obj).expect("object");
    fields.iter().map(|(k, _)| k.clone()).collect()
}

/// Random `record`/`record_event` streams agree with a per-key map model:
/// every count, every slot's energy and the total to the bit, equality,
/// and JSON keys for exactly the recorded categories and events, in enum
/// order.
#[test]
fn record_streams_match_a_per_key_map_model() {
    let mut r = Rng::seed_from_u64(0xE1);
    for _ in 0..CASES {
        let stream = charges(&mut r);
        let (account, model) = build(&stream);

        for c in Category::ALL {
            let (n, nj) = model.by_category.get(&c).copied().unwrap_or((0, 0.0));
            assert_eq!(account.count(c), n, "{c:?}");
            assert_eq!(account.energy(c).to_bits(), nj.to_bits(), "{c:?}");
        }
        for e in UarchEvent::ALL {
            let (n, nj) = model.by_event.get(&e).copied().unwrap_or((0, 0.0));
            assert_eq!(account.event_count(e), n, "{e:?}");
            assert_eq!(account.event_energy(e).to_bits(), nj.to_bits(), "{e:?}");
        }
        let insts: u64 = model.by_category.values().map(|s| s.0).sum();
        assert_eq!(account.total_instructions(), insts);
        assert_eq!(account.total_nj().to_bits(), model.total_nj().to_bits());

        let json = account.to_json();
        let want: Vec<String> = model.by_category.keys().map(|c| format!("{c:?}")).collect();
        assert_eq!(json_keys(&json, "by_category"), want);
        let want: Vec<String> = model.by_event.keys().map(|e| format!("{e:?}")).collect();
        assert_eq!(json_keys(&json, "by_event"), want);

        // equality tracks the model's: the same stream, and the stream
        // with one charge dropped or re-priced
        let mut other = stream.clone();
        if !other.is_empty() && r.bool() {
            let i = r.range_usize(0, other.len());
            if r.bool() {
                other.remove(i);
            } else {
                let (Charge::Inst(_, nj) | Charge::Event(_, nj)) = &mut other[i];
                *nj += 1.0;
            }
        }
        let (other_account, other_model) = build(&other);
        assert_eq!(account == other_account, model == other_model);
    }
}

#[test]
fn breakdown_always_partitions_the_total() {
    let mut r = Rng::seed_from_u64(0xE2);
    for _ in 0..CASES {
        let mut recs = records(&mut r, 60, 0.01);
        recs.push((r.below(256) as u8, r.range_f64(0.01, 100.0))); // 1..=60 records
        let hist_nj = r.range_f64(0.0, 50.0);
        let wb_nj = r.range_f64(0.0, 50.0);

        let mut account = EnergyAccount::new();
        for &(c, nj) in &recs {
            account.record(category(c), nj);
        }
        account.record_event(UarchEvent::HistRead, hist_nj);
        account.record_event(UarchEvent::WritebackL2, wb_nj);
        let b = account.breakdown();
        let sum = b.load_pct + b.store_pct + b.non_mem_pct + b.hist_read_pct;
        assert!((sum - 100.0).abs() < 1e-6, "sum {sum}");
        assert!(b.load_pct >= 0.0 && b.store_pct >= 0.0 && b.hist_read_pct >= 0.0);
    }
}

#[test]
fn cycles_saved_never_underflows() {
    let mut r = Rng::seed_from_u64(0xE3);
    for _ in 0..CASES {
        let add: Vec<u64> = (0..r.range_usize(0, 20)).map(|_| r.below(1000)).collect();
        let sub: Vec<u64> = (0..r.range_usize(0, 20)).map(|_| r.below(2000)).collect();
        let mut account = EnergyAccount::new();
        for &c in &add {
            account.add_cycles(c);
        }
        for &c in &sub {
            account.add_cycles_saved(c);
        }
        let net: i128 = add.iter().map(|&c| c as i128).sum::<i128>()
            - sub.iter().map(|&c| c as i128).sum::<i128>();
        if net >= 0 {
            // interleaving here is add-all-then-sub-all, so saturation can
            // only trigger when the net is negative
            assert_eq!(account.cycles() as i128, net);
        } else {
            assert_eq!(account.cycles(), 0, "saturates at zero");
        }
    }
}
