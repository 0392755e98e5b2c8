//! K-way merge order of already-sorted event runs.
//!
//! Every order the epoch barrier restores is a merge of runs that are
//! sorted by construction: each shard merges its lanes from every core
//! (each lane the seqs of that core's requests for the shard, in issue
//! order), each target shard merges the command runs of every source shard
//! (each in drain order), and the calling thread merges the shards'
//! invalidation runs. An `O(n log k)` k-way merge replaces the
//! `O(n log n)` comparison sorts the barrier once used.
//!
//! The merge writes an *order*, not a copy: one 8-byte [`Pos`] per element,
//! naming the run and the index in it, so the consumer reads every element
//! where its producer left it. The order comes from a loser tree over one
//! packed integer key per run head ([`super::request::ReqKey::packed`]):
//! each output replays one leaf-to-root path of `⌈log₂ k⌉` integer
//! comparisons. The key function sees the run index with the element, so
//! a lane of seqs can key each seq by the request it names in its core's
//! run.
//!
//! The merge is stable across runs (ties go to the earlier run, each run's
//! internal order is preserved). Barrier keys are unique per request —
//! `(timestamp, core, seq)` — so stability is only observable for
//! same-request command batches, which were emitted adjacently by one
//! shard and stay adjacent here.

/// One element of a merge order: `(run, index in the run)`.
pub type Pos = (u32, u32);

/// Key of an exhausted run (and of the padding leaves). Packed request keys
/// use 112 bits, so no element carries it.
const DONE: u128 = u128::MAX;

/// Writes into `out` (cleared first) the positions of every element of
/// `runs` — each already sorted ascending by `key(run index, element)` —
/// in merged order. Stable across runs: equal keys drain in run order,
/// each run in its own order. `key` must never return `u128::MAX`.
pub fn kway_merge_order<T, R: AsRef<[T]>>(
    runs: &[R],
    key: impl Fn(usize, &T) -> u128,
    out: &mut Vec<Pos>,
) {
    out.clear();
    let total: usize = runs.iter().map(|r| r.as_ref().len()).sum();
    out.reserve(total);
    // Leaves `[leaves, 2 * leaves)` of an implicit binary tree hold the
    // run heads (padding leaves are exhausted runs); internal node `n`
    // keeps the loser of the match played there, and the overall winner is
    // the smallest `(head key, run)`.
    let leaves = runs.len().next_power_of_two();
    let head_of = |r: usize, i: usize| {
        runs.get(r).and_then(|run| run.as_ref().get(i)).map_or(DONE, |x| key(r, x))
    };
    let mut head: Vec<u128> = (0..leaves).map(|r| head_of(r, 0)).collect();
    let mut next = vec![0u32; runs.len()];
    let beats = |head: &[u128], a: u32, b: u32| (head[a as usize], a) < (head[b as usize], b);
    let mut loser = vec![0u32; leaves];
    let mut winner = vec![0u32; 2 * leaves];
    for (leaf, w) in winner[leaves..].iter_mut().enumerate() {
        *w = leaf as u32;
    }
    for n in (1..leaves).rev() {
        let (a, b) = (winner[2 * n], winner[2 * n + 1]);
        (winner[n], loser[n]) = if beats(&head, a, b) { (a, b) } else { (b, a) };
    }
    let mut w = winner[1];
    for _ in 0..total {
        let r = w as usize;
        out.push((w, next[r]));
        next[r] += 1;
        head[r] = head_of(r, next[r] as usize);
        let mut n = (leaves + r) / 2;
        while n > 0 {
            if beats(&head, loser[n], w) {
                std::mem::swap(&mut loser[n], &mut w);
            }
            n /= 2;
        }
    }
}

/// The element `pos` names in `runs`.
#[inline]
pub fn at<T, R: AsRef<[T]>>(runs: &[R], (run, i): Pos) -> &T {
    &runs[run as usize].as_ref()[i as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(key, run, index)` of every element in merge order.
    fn merged(runs: &[Vec<u32>]) -> Vec<(u32, u32, u32)> {
        let mut order = Vec::new();
        kway_merge_order(runs, |_, &x| x as u128, &mut order);
        order.iter().map(|&p| (*at(runs, p), p.0, p.1)).collect()
    }

    /// The same triples from a stable sort of the concatenated runs.
    fn stable_sorted(runs: &[Vec<u32>]) -> Vec<(u32, u32, u32)> {
        let mut all: Vec<(u32, u32, u32)> = runs
            .iter()
            .enumerate()
            .flat_map(|(r, run)| run.iter().enumerate().map(move |(i, &x)| (x, r as u32, i as u32)))
            .collect();
        all.sort_by_key(|t| t.0);
        all
    }

    /// Deterministic xorshift; no external randomness in tests.
    fn rng(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn merges_zero_one_two_and_many_runs() {
        let keys = |runs: &[Vec<u32>]| merged(runs).into_iter().map(|t| t.0).collect::<Vec<_>>();
        assert_eq!(keys(&[]), Vec::<u32>::new());
        assert_eq!(keys(&[vec![1, 3, 5]]), vec![1, 3, 5]);
        assert_eq!(keys(&[vec![1, 4, 9], vec![2, 3, 10]]), vec![1, 2, 3, 4, 9, 10]);
        assert_eq!(keys(&[vec![], vec![2], vec![]]), vec![2]);
        assert_eq!(keys(&[vec![], vec![]]), Vec::<u32>::new());
        assert_eq!(
            keys(&[vec![5, 6], vec![1, 9], vec![0, 7, 8], vec![2, 3, 4]]),
            vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
        );
    }

    #[test]
    fn equals_a_sort_on_random_runs() {
        let mut next = rng(0x9e37_79b9_7f4a_7c15);
        for (trial, k) in [0usize, 1, 2, 3, 5, 7, 8, 9, 40].iter().cycle().take(90).enumerate() {
            // Few distinct keys, so cross-run ties are common; about one
            // run in four is empty.
            let runs: Vec<Vec<u32>> = (0..*k)
                .map(|_| {
                    let len = if next() % 4 == 0 { 0 } else { (next() % 40) as usize };
                    let mut v: Vec<u32> = (0..len).map(|_| (next() % 50) as u32).collect();
                    v.sort_unstable();
                    v
                })
                .collect();
            assert_eq!(merged(&runs), stable_sorted(&runs), "trial {trial}, k = {k}");
        }
    }

    #[test]
    fn ties_resolve_to_the_earlier_run_preserving_run_order() {
        let runs = [vec![1, 2, 2], vec![2, 3], vec![2]];
        assert_eq!(
            merged(&runs),
            vec![(1, 0, 0), (2, 0, 1), (2, 0, 2), (2, 1, 0), (2, 2, 0), (3, 1, 1)],
            "equal keys drain earlier-run first, in-run order intact"
        );
    }

    /// Runs of indices keyed through a table the key function reads with
    /// the run index, as a shard keys its lanes of seqs by the requests
    /// they name.
    #[test]
    fn keys_see_the_run_index() {
        let table = [vec![10u32, 40, 50], vec![5, 20, 45]];
        let lanes = [vec![0u16, 2], vec![0, 1, 2]];
        let mut order = Vec::new();
        kway_merge_order(&lanes, |r, &i| table[r][i as usize] as u128, &mut order);
        let keys: Vec<u32> = order
            .iter()
            .map(|&(r, j)| table[r as usize][lanes[r as usize][j as usize] as usize])
            .collect();
        assert_eq!(keys, vec![5, 10, 20, 45, 50]);
    }

    #[test]
    fn reuses_the_output_buffer() {
        let mut order = vec![(9, 9); 8];
        order.reserve(64);
        let cap = order.capacity();
        let ptr = order.as_ptr();
        kway_merge_order(&[vec![1u32, 2], vec![0]], |_, &x| x as u128, &mut order);
        assert_eq!(order, vec![(1, 0), (0, 0), (0, 1)], "buffer cleared before merging");
        assert_eq!((order.capacity(), order.as_ptr()), (cap, ptr), "no reallocation");
    }
}
