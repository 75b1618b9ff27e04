//! The compaction rule of the segmented stores (`Dictionary`, `TextIndex`):
//! after a freeze, merge the two newest segments while the older holds fewer
//! than twice the newer's entries.  Sizes then fall geometrically from oldest
//! to newest, so a store keeps `O(log n)` segments.

use std::sync::Arc;

/// Merge trailing `segments` (oldest first) until the second-newest holds at
/// least twice the newest's `len`, replacing each pair by `merge(older,
/// newer)`.  Returns how many merges ran.
pub(crate) fn compact<S>(
    segments: &mut Vec<Arc<S>>,
    len: impl Fn(&S) -> usize,
    merge: impl Fn(&S, &S) -> S,
) -> u64 {
    let mut merges = 0;
    while let [.., older, newer] = segments.as_slice() {
        if len(older) >= 2 * len(newer) {
            break;
        }
        let merged = merge(older, newer);
        segments.truncate(segments.len() - 2);
        segments.push(Arc::new(merged));
        merges += 1;
    }
    merges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sizes(segments: &[Arc<usize>]) -> Vec<usize> {
        segments.iter().map(|s| **s).collect()
    }

    #[test]
    fn merges_until_sizes_fall_geometrically() {
        let mut segments: Vec<Arc<usize>> = [9, 4, 2].into_iter().map(Arc::new).collect();
        assert_eq!(compact(&mut segments, |s| *s, |a, b| a + b), 0);
        segments.push(Arc::new(3));
        // 2 < 2·3 merges to 5; 4 < 2·5 merges to 9; 9 ≥ 2·9 fails: 18.
        assert_eq!(compact(&mut segments, |s| *s, |a, b| a + b), 3);
        assert_eq!(sizes(&segments), vec![18]);
        segments.push(Arc::new(9));
        assert_eq!(compact(&mut segments, |s| *s, |a, b| a + b), 0);
        assert_eq!(sizes(&segments), vec![18, 9]);
    }
}
