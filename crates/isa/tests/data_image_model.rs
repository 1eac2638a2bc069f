//! Model test for [`DataImage`]: seeded random `set` sequences run against
//! a `BTreeMap<u64, u64>` model, checking every observer after every step.
//!
//! The sequences mix appends above the top word, appends across a gap,
//! overwrites, out-of-order inserts that extend a run downwards or fill the
//! one-word gap between two runs (joining them), and words at both ends of
//! the address space. Images that hold the same words must compare equal
//! and encode to the same bytes, whatever order built them.

use std::collections::BTreeMap;

use amnesiac_isa::{encode_program, DataImage, Program};
use amnesiac_rng::Rng;

const SEQUENCES: u64 = 64;
const STEPS: usize = 400;
/// Most addresses fall in `[BASE, BASE + WINDOW)`, so runs meet often.
const BASE: u64 = 0x1000;
const WINDOW: u64 = 96;

/// The next address to write, given the model's current words; `extremes`
/// lets it write the ends of the address space (after which no write
/// below them is an append).
fn next_addr(r: &mut Rng, model: &BTreeMap<u64, u64>, extremes: bool) -> u64 {
    let top = model
        .range(..u64::MAX - 8)
        .next_back()
        .map_or(BASE, |(&a, _)| a);
    match r.below(8) {
        // append: extend the top run, or open a run past a gap
        0 => top + 1,
        1 => top + r.range_u64(2, 5),
        // overwrite an existing word
        2 if !model.is_empty() => {
            let k = r.below(model.len() as u64) as usize;
            *model.keys().nth(k).unwrap_or(&BASE)
        }
        // the ends of the address space
        3 if extremes => *r.choose(&[0, 1, u64::MAX - 1, u64::MAX]),
        // anywhere in the window, usually below the top: out-of-order
        // inserts, gap fills and run joins
        _ => BASE + r.below(WINDOW),
    }
}

/// Checks every observer of `image` against `model`.
fn check(image: &DataImage, model: &BTreeMap<u64, u64>, probes: &[u64], step: usize) {
    assert_eq!(image.len(), model.len(), "step {step}: len");
    assert_eq!(image.is_empty(), model.is_empty(), "step {step}: is_empty");
    assert!(
        image.iter().eq(model.iter().map(|(&a, &v)| (a, v))),
        "step {step}: iter"
    );
    for &addr in probes {
        assert_eq!(
            image.get(addr),
            model.get(&addr).copied().unwrap_or(0),
            "step {step}: get({addr:#x})"
        );
        assert_eq!(
            image.is_initialized(addr),
            model.contains_key(&addr),
            "step {step}: is_initialized({addr:#x})"
        );
    }
    // the runs are canonical: non-empty, ascending, and no two touch
    let mut prev_last: Option<u64> = None;
    for (base, words) in image.runs() {
        assert!(!words.is_empty(), "step {step}: empty run at {base:#x}");
        if let Some(last) = prev_last {
            assert!(
                base > last && base - last > 1,
                "step {step}: runs touch at {base:#x}"
            );
        }
        prev_last = Some(base + (words.len() as u64 - 1));
    }
}

fn encoded(image: &DataImage) -> Vec<u8> {
    let mut program = Program::new("model");
    program.data = image.clone();
    encode_program(&program)
}

#[test]
fn random_set_sequences_match_a_btreemap_model() {
    for seed in 0..SEQUENCES {
        let mut r = Rng::seed_from_u64(0xDA7A_0000 + seed);
        let mut image = DataImage::new();
        let mut model = BTreeMap::new();
        for step in 0..STEPS {
            let addr = next_addr(&mut r, &model, seed % 2 == 1);
            let value = if r.below(4) == 0 { 0 } else { r.next_u64() };
            image.set(addr, value);
            model.insert(addr, value);
            let probes = [
                addr,
                addr.wrapping_sub(1),
                addr.wrapping_add(1),
                BASE + r.below(WINDOW + 8),
                0,
                u64::MAX,
            ];
            check(&image, &model, &probes, step);
        }

        // the same words, written in other orders, make the same image
        let mut pairs: Vec<(u64, u64)> = model.iter().map(|(&a, &v)| (a, v)).collect();
        r.shuffle(&mut pairs);
        let mut shuffled = DataImage::new();
        for &(addr, value) in &pairs {
            shuffled.set(addr, value);
        }
        let collected: DataImage = pairs.iter().rev().copied().collect();
        assert_eq!(shuffled, image, "seed {seed}: shuffled sets");
        assert_eq!(collected, image, "seed {seed}: collected pairs");
        assert_eq!(encoded(&shuffled), encoded(&image), "seed {seed}: bytes");
        assert_eq!(encoded(&collected), encoded(&image), "seed {seed}: bytes");
    }
}

#[test]
fn set_run_matches_one_set_per_word() {
    let mut r = Rng::seed_from_u64(0x5E7_2A4);
    for _ in 0..200 {
        let mut by_run = DataImage::new();
        let mut by_word = DataImage::new();
        for _ in 0..6 {
            let base = BASE + r.below(WINDOW);
            let len = r.below(12) as usize;
            let values: Vec<u64> = (0..len).map(|_| r.next_u64()).collect();
            by_run.set_run(base, &values);
            for (i, &v) in values.iter().enumerate() {
                by_word.set(base + i as u64, v);
            }
            assert_eq!(by_run, by_word);
        }
    }
}
