//! K-way merge of already-sorted event runs.
//!
//! Every order the epoch barrier restores is a merge of runs that are
//! sorted by construction: each shard merges its lanes from every core
//! (each lane in issue order), each target shard merges the command runs
//! of every source shard (each in drain order), and the calling thread
//! merges the shards' invalidation runs. An `O(n log k)` k-way merge
//! replaces the `O(n log n)` comparison sorts the barrier once used.
//!
//! The merge is stable across runs (ties go to the earlier run, each run's
//! internal order is preserved). Barrier keys are unique per request —
//! `(timestamp, core, seq)` — so stability is only observable for
//! same-request command batches, which were emitted adjacently by one
//! shard and stay adjacent here.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Merges `runs` — each already sorted ascending by `key` — into `out`
/// (cleared first). Stable across runs: equal keys drain in run order.
pub fn kway_merge_into<T: Copy, K: Ord>(runs: &[&[T]], key: impl Fn(&T) -> K, out: &mut Vec<T>) {
    out.clear();
    out.reserve(runs.iter().map(|r| r.len()).sum());
    match runs.len() {
        0 => {}
        1 => out.extend_from_slice(runs[0]),
        2 => {
            // The common two-run case skips the heap entirely.
            let (mut a, mut b) = (runs[0].iter(), runs[1].iter());
            let (mut x, mut y) = (a.next(), b.next());
            loop {
                match (x, y) {
                    (Some(&xa), Some(&yb)) => {
                        if key(&xa) <= key(&yb) {
                            out.push(xa);
                            x = a.next();
                        } else {
                            out.push(yb);
                            y = b.next();
                        }
                    }
                    (Some(&xa), None) => {
                        out.push(xa);
                        out.extend(a.copied());
                        break;
                    }
                    (None, Some(&yb)) => {
                        out.push(yb);
                        out.extend(b.copied());
                        break;
                    }
                    (None, None) => break,
                }
            }
        }
        _ => {
            // Heap of (key, run index): ties resolve to the earlier run.
            let mut pos = vec![0usize; runs.len()];
            let mut heap = BinaryHeap::with_capacity(runs.len());
            for (i, r) in runs.iter().enumerate() {
                if let Some(first) = r.first() {
                    heap.push(Reverse((key(first), i)));
                }
            }
            while let Some(Reverse((_, i))) = heap.pop() {
                let item = runs[i][pos[i]];
                out.push(item);
                pos[i] += 1;
                if pos[i] < runs[i].len() {
                    heap.push(Reverse((key(&runs[i][pos[i]]), i)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn merged(runs: &[&[u32]]) -> Vec<u32> {
        let mut out = Vec::new();
        kway_merge_into(runs, |&x| x, &mut out);
        out
    }

    #[test]
    fn merges_zero_one_two_and_many_runs() {
        assert_eq!(merged(&[]), Vec::<u32>::new());
        assert_eq!(merged(&[&[1, 3, 5]]), vec![1, 3, 5]);
        assert_eq!(merged(&[&[1, 4, 9], &[2, 3, 10]]), vec![1, 2, 3, 4, 9, 10]);
        assert_eq!(merged(&[&[], &[2], &[]]), vec![2]);
        assert_eq!(
            merged(&[&[5, 6], &[1, 9], &[0, 7, 8], &[2, 3, 4]]),
            vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
        );
    }

    #[test]
    fn equals_a_sort_on_random_runs() {
        // Deterministic xorshift; no external randomness in tests.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..50 {
            let k = 1 + (trial % 7);
            let runs: Vec<Vec<u64>> = (0..k)
                .map(|_| {
                    let len = (next() % 40) as usize;
                    let mut v: Vec<u64> = (0..len).map(|_| next() % 1000).collect();
                    v.sort_unstable();
                    v
                })
                .collect();
            let slices: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
            let mut out = Vec::new();
            kway_merge_into(&slices, |&x| x, &mut out);
            let mut want: Vec<u64> = runs.iter().flatten().copied().collect();
            want.sort_unstable();
            assert_eq!(out, want, "trial {trial}");
        }
    }

    #[test]
    fn ties_resolve_to_the_earlier_run_preserving_run_order() {
        // Key on .0 only; .1 identifies origin.
        let a = [(1u32, 'a'), (2, 'b'), (2, 'c')];
        let b = [(2u32, 'd'), (3, 'e')];
        let c = [(2u32, 'f')];
        let mut out = Vec::new();
        kway_merge_into(&[&a, &b, &c], |t| t.0, &mut out);
        assert_eq!(
            out,
            vec![(1, 'a'), (2, 'b'), (2, 'c'), (2, 'd'), (2, 'f'), (3, 'e')],
            "equal keys drain earlier-run first, in-run order intact"
        );
    }

    #[test]
    fn reuses_the_output_buffer() {
        let mut out = vec![99u32; 8];
        kway_merge_into(&[&[1u32, 2][..], &[0][..]], |&x| x, &mut out);
        assert_eq!(out, vec![0, 1, 2], "buffer cleared before merging");
    }
}
