//! Lazily built `u16` rows over a structure no world event changes.
//!
//! Two tables are instances of [`LazyRows`]: the building graph's
//! per-source shortest-path parents ([`crate::route`]) and the AP
//! graph's per-destination-building hop counts ([`crate::apgraph`]).
//! Both answer a query by search until a key has been asked often
//! enough that one exhaustive pass from it is the cheaper buy, keep what
//! that pass computed for as long as the graph lives, and share it among
//! every clone of the graph. What a row must hold to go in, and what a
//! query does with it, is each owner's business; when a key has earned
//! one, and how much the table may hold, is decided here, once.

use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

/// Requests a key answers by search before its row is built: the row
/// goes in on the 16th. Renting until the rent paid equals the price is
/// the ski-rental rule — never more than twice the best choice made with
/// hindsight — so a 256-flow probe or a one-off pair buys nothing, and a
/// key a stream round asks 29 times pays once and reads from then on.
/// One constant serves both tables because both ratios sit inside that
/// factor of two (downtown, 530 buildings / 962 APs): a shortest-path
/// tree is 109–135 µs against a 7.2–9.1 µs A* (14–16 searches; best of
/// 7 passes over every source, busy 2-CPU x86-64 host), a hop row
/// 25.6 µs with its allocation against a 1.9–2.4 µs ALT search (11–13).
const ROW_AFTER_REQUESTS: u32 = 16;

/// Ceiling on one table at full occupancy, bytes (`2 · keys · row_len`).
/// Downtown's parent table is 0.54 MiB and its hop table 1.0 MB; the
/// one-tile metro's hop table is 6.9 MB. A map above the ceiling — the
/// 2×2 metro would need 59 MiB of parents and 140 MB of hops — gets no
/// table, allocates nothing and searches exactly as before.
const ROWS_MAX_BYTES: usize = 8 << 20;

/// The row entry that is no value: "no predecessor", "no path".
pub(crate) const NO_ENTRY: u16 = u16::MAX;

/// One lazily filled row and one request count per key. A row, once
/// installed, is never replaced or dropped.
#[derive(Debug)]
pub(crate) struct LazyRows {
    /// Requests each key has answered by search, saturating just past
    /// [`ROW_AFTER_REQUESTS`].
    requests: Box<[AtomicU32]>,
    rows: Box<[OnceLock<Box<[u16]>>]>,
    row_len: usize,
}

impl LazyRows {
    /// An empty table of `keys` rows of `row_len` entries, or `None`
    /// when full occupancy would pass [`ROWS_MAX_BYTES`] or a row is
    /// too long for its entries: an entry is an index into the row or a
    /// path length within it, so `row_len ≤ u16::MAX` keeps every value
    /// below [`NO_ENTRY`].
    pub(crate) fn new(keys: usize, row_len: usize) -> Option<Arc<Self>> {
        let full = keys
            .checked_mul(row_len)?
            .checked_mul(std::mem::size_of::<u16>())?;
        (full <= ROWS_MAX_BYTES && row_len <= usize::from(NO_ENTRY)).then(|| {
            Arc::new(LazyRows {
                requests: (0..keys).map(|_| AtomicU32::new(0)).collect(),
                rows: (0..keys).map(|_| OnceLock::new()).collect(),
                row_len,
            })
        })
    }

    /// The row of `key`, when one has been installed.
    #[inline]
    pub(crate) fn row(&self, key: u32) -> Option<&[u16]> {
        self.rows[key as usize].get().map(|row| &**row)
    }

    /// Counts one request `key` has no row for. `true` on exactly one
    /// call per key — its [`ROW_AFTER_REQUESTS`]th — whichever thread
    /// makes it: that caller builds the row.
    pub(crate) fn due(&self, key: u32) -> bool {
        // A statistic that publishes nothing (the row itself is
        // published by its `OnceLock`), so `Relaxed`; read-modify-write
        // on one location is still totally ordered, which is what makes
        // the 16th unique.
        let seen = &self.requests[key as usize];
        seen.load(Relaxed) < ROW_AFTER_REQUESTS
            && seen.fetch_add(1, Relaxed) + 1 == ROW_AFTER_REQUESTS
    }

    /// A row of the table's length, every entry [`NO_ENTRY`]: the one
    /// allocation a row costs.
    pub(crate) fn blank_row(&self) -> Box<[u16]> {
        vec![NO_ENTRY; self.row_len].into_boxed_slice()
    }

    /// Installs the row of `key` and returns it.
    ///
    /// # Panics
    /// Panics when `key` already has one: [`LazyRows::due`] picks one
    /// builder per key.
    pub(crate) fn install(&self, key: u32, row: Box<[u16]>) -> &[u16] {
        debug_assert_eq!(row.len(), self.row_len);
        let slot = &self.rows[key as usize];
        slot.set(row).expect("one builder per key");
        slot.get().expect("just set")
    }

    /// Rows installed so far.
    pub(crate) fn built(&self) -> usize {
        self.rows.iter().filter(|row| row.get().is_some()).count()
    }

    /// Heap bytes held: the slots, plus the rows written so far.
    pub(crate) fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.rows.len() * (size_of::<AtomicU32>() + size_of::<OnceLock<Box<[u16]>>>())
            + self.built() * self.row_len * size_of::<u16>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_exist_up_to_the_byte_ceiling_only() {
        let exists = |keys, row_len| LazyRows::new(keys, row_len).is_some();
        assert!(exists(0, 0) && exists(2_048, 2_048) && exists(64, 65_535));
        assert!(!exists(2_049, 2_048) && !exists(2_048, 2_049));
        assert!(!exists(usize::MAX, 2) && !exists(2, usize::MAX));
        // Under the byte ceiling, but a hop count could reach the
        // sentinel.
        assert!(!exists(2, 65_536));
    }

    #[test]
    fn the_sixteenth_request_is_due_once_and_an_installed_row_counts() {
        let rows = LazyRows::new(3, 4).unwrap();
        let due: Vec<bool> = (0..40).map(|_| rows.due(1)).collect();
        assert_eq!(due.iter().position(|&d| d), Some(15));
        assert_eq!(due.iter().filter(|&&d| d).count(), 1);
        assert_eq!((rows.row(1), rows.built()), (None, 0));
        let empty = rows.memory_bytes();
        let mut row = rows.blank_row();
        assert_eq!(*row, [NO_ENTRY; 4]);
        row[2] = 1;
        assert_eq!(rows.install(1, row), [NO_ENTRY, NO_ENTRY, 1, NO_ENTRY]);
        assert_eq!(rows.row(1), Some(&[NO_ENTRY, NO_ENTRY, 1, NO_ENTRY][..]));
        assert_eq!((rows.built(), rows.memory_bytes()), (1, empty + 8));
        assert_eq!(rows.row(0).or(rows.row(2)), None);
    }
}
