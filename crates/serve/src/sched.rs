//! The scheduler core both drivers run: admitted-but-unrun work in one FIFO
//! per [`SloClass`], and the one rule that forms a batch out of it. The
//! threaded [`crate::server`] keeps a single [`Backlog`] behind a mutex; the
//! virtual-time [`crate::fleet`] keeps one per replica. Neither has any other
//! batch-formation code, so a property proved here holds for both.

use crate::slo::SloClass;
use std::collections::VecDeque;

/// Waiting work, one FIFO per class rank.
pub(crate) struct Backlog<T> {
    queues: [VecDeque<T>; SloClass::COUNT],
}

impl<T> Default for Backlog<T> {
    fn default() -> Self {
        Self { queues: Default::default() }
    }
}

impl<T> Backlog<T> {
    /// Queues `item` behind everything already waiting in `class`.
    pub(crate) fn push(&mut self, class: SloClass, item: T) {
        self.queues[class.rank()].push_back(item);
    }

    /// Items waiting, all classes together.
    pub(crate) fn len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Picks the next batch: the oldest item of the highest non-empty class
    /// plus, in arrival order, later items of that class and `shape`, up to
    /// `max_batch`. Classes never mix, or a best-effort arrival could ride an
    /// interactive batch past its shed threshold.
    pub(crate) fn take_batch<K: PartialEq>(
        &mut self,
        max_batch: usize,
        shape: impl Fn(&T) -> K,
    ) -> Vec<T> {
        let Some(queue) = self.queues.iter_mut().find(|q| !q.is_empty()) else { return Vec::new() };
        let key = shape(&queue[0]);
        let mut batch = Vec::with_capacity(max_batch.min(queue.len()));
        let mut i = 0;
        while i < queue.len() && batch.len() < max_batch {
            if shape(&queue[i]) == key {
                batch.extend(queue.remove(i));
            } else {
                i += 1;
            }
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    proptest::proptest! {
        /// Batch selection over arbitrary pending jobs: highest class
        /// first, FIFO within a class, one (class, entry layer, width) per
        /// batch, never more than `max_batch`, and jobs in = jobs out.
        #[test]
        fn take_batch_is_class_ordered_fifo_and_conserving(
            codes in proptest::collection::vec(0usize..18, 0..48),
            max_batch in 1usize..10,
        ) {
            // job = (arrival seq, class rank, (entry layer, width))
            let jobs: Vec<(usize, usize, (usize, usize))> = codes
                .iter()
                .enumerate()
                .map(|(seq, &c)| (seq, c % 3, (c / 3 % 3, c / 9)))
                .collect();
            let mut backlog = Backlog::default();
            for &job in &jobs {
                backlog.push(SloClass::ALL[job.1], job);
            }
            proptest::prop_assert_eq!(backlog.len(), jobs.len());
            let mut left = jobs.clone();
            loop {
                let batch = backlog.take_batch(max_batch, |job| job.2);
                if batch.is_empty() {
                    break;
                }
                proptest::prop_assert!(batch.len() <= max_batch);
                let (_, rank, shape) = batch[0];
                let highest = left.iter().map(|j| j.1).min();
                proptest::prop_assert_eq!(highest, Some(rank), "highest class first");
                // exactly the oldest waiting jobs of that class and shape,
                // led by the class's oldest job whatever its shape
                proptest::prop_assert_eq!(left.iter().find(|j| j.1 == rank), Some(&batch[0]));
                let expected: Vec<_> = left
                    .iter()
                    .filter(|j| j.1 == rank && j.2 == shape)
                    .take(max_batch)
                    .copied()
                    .collect();
                proptest::prop_assert_eq!(&batch, &expected);
                left.retain(|j| !batch.contains(j));
                proptest::prop_assert_eq!(backlog.len(), left.len());
            }
            proptest::prop_assert!(left.is_empty(), "jobs never handed out: {:?}", left);
        }
    }
}
