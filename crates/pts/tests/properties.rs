//! Randomized property tests for `PtsSet` against a `BTreeSet` oracle.
//!
//! Driven by the in-tree SplitMix64 PRNG (`obs::rng`) so runs are
//! deterministic and reproducible from the printed seed. Each trial
//! mirrors a random operation sequence onto both a `PtsSet<u32>` and a
//! `BTreeSet<u32>` and asserts they agree on membership, cardinality,
//! iteration order, union deltas, range-filtered unions, and
//! intersection — deliberately crossing the small→dense promotion
//! boundary. Kernel outputs are also held to the representation rule:
//! the same representation and footprint as the same content built by
//! repeated `insert`.

use obs::rng::SplitMix64;
use pts::{IdRanges, PtsSet, SMALL_MAX};
use std::collections::BTreeSet;

/// Universe large enough to exercise multi-word bitmaps, small enough
/// for collisions (re-inserts, overlapping unions) to be common.
const UNIVERSE: u64 = 700;

fn assert_matches(set: &PtsSet<u32>, oracle: &BTreeSet<u32>, ctx: &str) {
    assert_eq!(set.len(), oracle.len(), "len mismatch: {ctx}");
    assert_eq!(set.is_empty(), oracle.is_empty(), "is_empty mismatch: {ctx}");
    // Iteration must be ascending and exactly the oracle's contents.
    let got: Vec<u32> = set.iter().collect();
    let want: Vec<u32> = oracle.iter().copied().collect();
    assert_eq!(got, want, "iter/order mismatch: {ctx}");
    assert_eq!(set.to_vec(), want, "to_vec mismatch: {ctx}");
}

fn random_set(rng: &mut SplitMix64, max_len: u64) -> (PtsSet<u32>, BTreeSet<u32>) {
    let n = rng.below(max_len);
    let mut set = PtsSet::new();
    let mut oracle = BTreeSet::new();
    for _ in 0..n {
        let v = rng.below(UNIVERSE) as u32;
        assert_eq!(set.insert(v), oracle.insert(v), "insert return value");
    }
    (set, oracle)
}

#[test]
fn insert_contains_iter_match_oracle() {
    let mut rng = SplitMix64::new(0x9e3779b97f4a7c15);
    for trial in 0..200 {
        let (set, oracle) = random_set(&mut rng, 3 * SMALL_MAX as u64);
        assert_matches(&set, &oracle, &format!("trial {trial}"));
        for _ in 0..32 {
            let probe = rng.below(UNIVERSE) as u32;
            assert_eq!(
                set.contains(probe),
                oracle.contains(&probe),
                "contains({probe}) mismatch, trial {trial}"
            );
        }
    }
}

#[test]
fn union_into_delta_matches_oracle() {
    let mut rng = SplitMix64::new(0xdeadbeefcafef00d);
    for trial in 0..200 {
        let (src, src_o) = random_set(&mut rng, 4 * SMALL_MAX as u64);
        let (mut dst, mut dst_o) = random_set(&mut rng, 4 * SMALL_MAX as u64);

        let delta = src.union_into(&mut dst);
        let delta_o: BTreeSet<u32> = src_o.difference(&dst_o).copied().collect();
        dst_o.extend(src_o.iter().copied());

        assert_matches(&delta, &delta_o, &format!("delta, trial {trial}"));
        assert_matches(&dst, &dst_o, &format!("union target, trial {trial}"));
        // Unioning again must be quiescent: empty delta, unchanged target.
        assert!(src.union_into(&mut dst).is_empty(), "requiescence, trial {trial}");
        assert_matches(&dst, &dst_o, &format!("post-requiescence, trial {trial}"));
    }
}

/// A cast edge as the solver runs it: the range-filtered contribution
/// against the target, then its union into the target.
#[test]
fn masked_union_matches_oracle() {
    let mut rng = SplitMix64::new(0x1234567812345678);
    for trial in 0..200 {
        let (src, src_o) = random_set(&mut rng, 4 * SMALL_MAX as u64);
        let (ranges, mask_o) = random_ranges(&mut rng);
        let (mut dst, mut dst_o) = random_set(&mut rng, 2 * SMALL_MAX as u64);

        let contrib = src.difference_in_ranges(&ranges, &dst);
        let delta = contrib.union_into(&mut dst);
        let masked: BTreeSet<u32> = src_o.intersection(&mask_o).copied().collect();
        let delta_o: BTreeSet<u32> = masked.difference(&dst_o).copied().collect();
        dst_o.extend(masked.iter().copied());

        assert_matches(&contrib, &delta_o, &format!("masked contribution, trial {trial}"));
        assert_matches(&delta, &delta_o, &format!("masked delta, trial {trial}"));
        assert_matches(&dst, &dst_o, &format!("masked target, trial {trial}"));
    }
}

#[test]
fn intersects_matches_oracle() {
    let mut rng = SplitMix64::new(0x0123456789abcdef);
    for trial in 0..300 {
        let (a, a_o) = random_set(&mut rng, 4 * SMALL_MAX as u64);
        let (b, b_o) = random_set(&mut rng, 4 * SMALL_MAX as u64);
        let want = !a_o.is_disjoint(&b_o);
        assert_eq!(a.intersects(&b), want, "a∩b, trial {trial}");
        assert_eq!(b.intersects(&a), want, "b∩a (symmetry), trial {trial}");
    }
}

#[test]
fn equality_is_representation_independent() {
    let mut rng = SplitMix64::new(0xfeedface00000001);
    for trial in 0..100 {
        let (set, oracle) = random_set(&mut rng, 3 * SMALL_MAX as u64);
        // Rebuild through a forced-dense detour: over-fill, then compare
        // a straight FromIterator rebuild against the original.
        let rebuilt: PtsSet<u32> = oracle.iter().copied().collect();
        assert_eq!(set, rebuilt, "rebuild equality, trial {trial}");
        let mut detour: PtsSet<u32> = (0u32..(SMALL_MAX as u32 + 8)).collect();
        detour.clear();
        for &v in &oracle {
            detour.insert(v);
        }
        // `detour` went through a dense promotion; contents decide.
        assert_eq!(detour.to_vec(), set.to_vec(), "dense detour, trial {trial}");
    }
}

/// A random coalesced run list plus the ids it covers.
fn random_ranges(rng: &mut SplitMix64) -> (IdRanges, BTreeSet<u32>) {
    let mut ids: BTreeSet<u32> = BTreeSet::new();
    for _ in 0..rng.below(6) {
        let lo = rng.below(UNIVERSE) as u32;
        let len = 1 + rng.below(96) as u32;
        ids.extend(lo..(lo + len).min(UNIVERSE as u32));
    }
    let ranges = IdRanges::from_sorted_ids(ids.iter().copied());
    (ranges, ids)
}

#[test]
fn id_ranges_coalesce_and_answer_membership() {
    let mut rng = SplitMix64::new(0x5eed5eed5eed5eed);
    for trial in 0..200 {
        let (ranges, ids) = random_ranges(&mut rng);
        // Runs must be ascending, disjoint, non-adjacent, and cover
        // exactly the oracle ids.
        for w in ranges.runs().windows(2) {
            assert!(w[0].1 < w[1].0, "runs not coalesced/sorted, trial {trial}");
        }
        assert_eq!(ranges.covered(), ids.len() as u64, "coverage, trial {trial}");
        for _ in 0..64 {
            let probe = rng.below(UNIVERSE) as u32;
            assert_eq!(
                ranges.contains(probe),
                ids.contains(&probe),
                "contains({probe}), trial {trial}"
            );
        }
        // Incremental insertion reaches the same runs as bulk build.
        let mut incremental = IdRanges::new();
        let mut shuffled: Vec<u32> = ids.iter().copied().collect();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for id in shuffled {
            incremental.insert_id(id);
        }
        assert_eq!(incremental, ranges, "incremental vs bulk, trial {trial}");
    }
}

#[test]
fn difference_in_ranges_matches_masked_set_oracle() {
    let mut rng = SplitMix64::new(0xc0ffee00c0ffee00);
    for trial in 0..300 {
        let (src, src_o) = random_set(&mut rng, 5 * SMALL_MAX as u64);
        let (ranges, mask_o) = random_ranges(&mut rng);
        let (other, other_o) = random_set(&mut rng, 3 * SMALL_MAX as u64);

        let got = src.difference_in_ranges(&ranges, &other);
        let want_o: BTreeSet<u32> = src_o
            .iter()
            .filter(|e| mask_o.contains(e) && !other_o.contains(e))
            .copied()
            .collect();
        assert_matches(&got, &want_o, &format!("range difference, trial {trial}"));
    }
}

#[test]
fn iter_in_ranges_matches_filtered_iteration() {
    let mut rng = SplitMix64::new(0x1ce1ce1ce1ce1ce1);
    for trial in 0..200 {
        let (set, set_o) = random_set(&mut rng, 5 * SMALL_MAX as u64);
        let (ranges, mask_o) = random_ranges(&mut rng);
        let got: Vec<u32> = set.iter_in_ranges(&ranges).collect();
        let want: Vec<u32> = set_o.iter().filter(|e| mask_o.contains(e)).copied().collect();
        assert_eq!(got, want, "range-bounded iteration, trial {trial}");
    }
}

#[test]
fn union_with_matches_extend() {
    let mut rng = SplitMix64::new(0xabcdef0123456789);
    for trial in 0..100 {
        let (a, a_o) = random_set(&mut rng, 5 * SMALL_MAX as u64);
        let (mut b, b_o) = random_set(&mut rng, 5 * SMALL_MAX as u64);
        b.union_with(&a);
        let union_o: BTreeSet<u32> = a_o.union(&b_o).copied().collect();
        assert_matches(&b, &union_o, &format!("union_with, trial {trial}"));
    }
}

/// The same content built by repeated `insert` from empty — the
/// representation every kernel output must reproduce.
fn inserted(set: &PtsSet<u32>) -> PtsSet<u32> {
    let mut out = PtsSet::new();
    for e in set.iter() {
        out.insert(e);
    }
    out
}

/// `got` holds `oracle` and has the representation and footprint of
/// the same content built by `insert` into `like` (a clone of the
/// operation's starting state; empty for fresh outputs).
fn assert_built_like(got: &PtsSet<u32>, oracle: &BTreeSet<u32>, like: &PtsSet<u32>, ctx: &str) {
    assert_matches(got, oracle, ctx);
    let mut want = like.clone();
    for &e in oracle {
        want.insert(e);
    }
    assert_eq!(got.is_dense(), want.is_dense(), "representation: {ctx}");
    assert_eq!(got.mem_words(), want.mem_words(), "mem_words: {ctx}");
}

/// A random set over a universe that is sometimes one word and
/// sometimes many, at sizes on both sides of the promotion boundary.
fn random_mixed(rng: &mut SplitMix64) -> (PtsSet<u32>, BTreeSet<u32>) {
    let universe = [64u64, UNIVERSE, 5_000][rng.below(3) as usize];
    let n = rng.below(5 * SMALL_MAX as u64);
    let mut set = PtsSet::new();
    let mut oracle = BTreeSet::new();
    for _ in 0..n {
        let v = rng.below(universe) as u32;
        set.insert(v);
        oracle.insert(v);
    }
    (set, oracle)
}

#[test]
fn kernels_keep_the_insert_representation() {
    let mut rng = SplitMix64::new(0x7f4a7c159e3779b9);
    let empty = PtsSet::new();
    let (mut saw_small, mut saw_dense) = (false, false);
    for trial in 0..600 {
        let (a, a_o) = random_mixed(&mut rng);
        let (b, b_o) = random_mixed(&mut rng);
        let (ranges, mask_o) = random_ranges(&mut rng);
        saw_small |= !a.is_dense() && !a.is_empty();
        saw_dense |= a.is_dense();
        assert_eq!(inserted(&a).is_dense(), a.is_dense(), "input rule, trial {trial}");

        let diff_o: BTreeSet<u32> = a_o.difference(&b_o).copied().collect();
        let ctx = format!("difference, trial {trial}");
        assert_built_like(&a.difference(&b), &diff_o, &empty, &ctx);

        let ranged_o: BTreeSet<u32> = diff_o.intersection(&mask_o).copied().collect();
        let ctx = format!("difference_in_ranges, trial {trial}");
        assert_built_like(&a.difference_in_ranges(&ranges, &b), &ranged_o, &empty, &ctx);

        let union_o: BTreeSet<u32> = a_o.union(&b_o).copied().collect();
        let mut target = b.clone();
        let delta = a.union_into(&mut target);
        assert_built_like(&delta, &diff_o, &empty, &format!("union_into delta, trial {trial}"));
        assert_built_like(&target, &union_o, &b, &format!("union_into target, trial {trial}"));

        let mut target = b.clone();
        target.union_with(&a);
        assert_built_like(&target, &union_o, &b, &format!("union_with, trial {trial}"));

        // Shards: a split into its lower and upper halves plus a
        // third random set, applied in order.
        let (c, c_o) = random_mixed(&mut rng);
        let mid = a_o.iter().nth(a_o.len() / 2).copied().unwrap_or(0);
        let lo: PtsSet<u32> = a.iter().filter(|&e| e < mid).collect();
        let hi: PtsSet<u32> = a.iter().filter(|&e| e >= mid).collect();
        let mut target = b.clone();
        let delta = PtsSet::union_into_from_shards([&lo, &c, &hi], &mut target);
        let all_o: BTreeSet<u32> = union_o.union(&c_o).copied().collect();
        let new_o: BTreeSet<u32> = all_o.difference(&b_o).copied().collect();
        assert_built_like(&delta, &new_o, &empty, &format!("shard delta, trial {trial}"));
        assert_built_like(&target, &all_o, &b, &format!("shard target, trial {trial}"));
    }
    assert!(saw_small && saw_dense, "inputs must cover both representations");
}
