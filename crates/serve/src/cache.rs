//! The content-addressed result cache.
//!
//! Values are the *exact* compact-JSON bytes of a scenario's result,
//! keyed by the scenario fingerprint
//! ([`ScenarioSpec::fingerprint`](crate::proto::ScenarioSpec::fingerprint)).
//! A hit replays those bytes verbatim, so a cached response is
//! byte-identical to the fresh run that populated it. Capacity is
//! bounded with least-recently-used eviction, and every lookup is
//! counted (hits, misses, evictions) — the daemon mirrors the counts
//! into its [`hierbus_obs::MetricsRegistry`].
//!
//! The cache can persist itself as a versioned JSON index (atomic
//! temp-file + rename, like the campaign manifest). An index records
//! the database fingerprint it was built against; loading under a
//! different characterization (or index version) starts empty instead
//! of replaying stale energies.

use hierbus_campaign::Json;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Version of the persisted index format; bumped on layout changes so
/// an old index is discarded, never misread.
pub const CACHE_INDEX_VERSION: u64 = 1;

/// Link value meaning "no slot" at either end of the recency list.
const NIL: usize = usize::MAX;

/// One cached result, threaded on the doubly linked recency list.
#[derive(Debug, Clone)]
struct Slot {
    /// Shared with the lookup map, so a key is allocated once.
    key: Arc<str>,
    value: String,
    /// The next older slot (`NIL` at the least recently used end).
    older: usize,
    /// The next newer slot (`NIL` at the most recently used end).
    newer: usize,
}

/// A bounded LRU map from scenario fingerprint to serialized result.
///
/// A hash map finds a key's slot; the slots form a doubly linked list
/// in recency order, so `get`, `insert` and eviction are each O(1). A
/// full cache reuses the evicted slot for the new entry, so slots are
/// never freed and `len` is the slot count.
#[derive(Debug, Clone)]
pub struct ResultCache {
    capacity: usize,
    /// Fingerprint → index into `slots`.
    map: HashMap<Arc<str>, usize>,
    slots: Vec<Slot>,
    /// Least recently used slot (`NIL` when empty).
    oldest: usize,
    /// Most recently used slot (`NIL` when empty).
    newest: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ResultCache {
    /// An empty cache holding at most `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity: capacity.max(1),
            map: HashMap::new(),
            slots: Vec::new(),
            oldest: NIL,
            newest: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The eviction bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted to respect the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks up a fingerprint, counting the hit or miss and refreshing
    /// the entry's recency on a hit.
    pub fn get(&mut self, key: &str) -> Option<String> {
        match self.map.get(key) {
            Some(&i) => {
                self.hits += 1;
                self.make_newest(i);
                Some(self.slots[i].value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) an entry as most recently used, evicting
    /// the least recently used entry if the cache is full.
    pub fn insert(&mut self, key: &str, value: String) {
        if let Some(&i) = self.map.get(key) {
            self.slots[i].value = value;
            self.make_newest(i);
            return;
        }
        let key: Arc<str> = Arc::from(key);
        let i = if self.slots.len() < self.capacity {
            self.slots.push(Slot {
                key: Arc::clone(&key),
                value,
                older: NIL,
                newer: NIL,
            });
            self.slots.len() - 1
        } else {
            let i = self.oldest;
            self.unlink(i);
            self.map.remove(&self.slots[i].key);
            self.evictions += 1;
            self.slots[i].key = Arc::clone(&key);
            self.slots[i].value = value;
            i
        };
        self.map.insert(key, i);
        self.push_newest(i);
    }

    /// Moves slot `i` to the most recently used end.
    fn make_newest(&mut self, i: usize) {
        if i != self.newest {
            self.unlink(i);
            self.push_newest(i);
        }
    }

    /// Detaches slot `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let Slot { older, newer, .. } = self.slots[i];
        match older {
            NIL => self.oldest = newer,
            o => self.slots[o].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.slots[n].older = older,
        }
    }

    /// Appends a detached slot `i` at the most recently used end.
    fn push_newest(&mut self, i: usize) {
        self.slots[i].older = self.newest;
        self.slots[i].newer = NIL;
        match self.newest {
            NIL => self.oldest = i,
            n => self.slots[n].newer = i,
        }
        self.newest = i;
    }

    /// The entries oldest first.
    fn iter_oldest_first(&self) -> impl Iterator<Item = &Slot> {
        let mut i = self.oldest;
        std::iter::from_fn(move || {
            let slot = self.slots.get(i)?;
            i = slot.newer;
            Some(slot)
        })
    }

    /// The persisted form: version, database fingerprint, entries in
    /// LRU order (oldest first, so a load replays recency exactly).
    pub fn to_json(&self, db_fingerprint: &str) -> Json {
        Json::Obj(vec![
            ("version".to_owned(), Json::Num(CACHE_INDEX_VERSION as f64)),
            ("db".to_owned(), Json::Str(db_fingerprint.to_owned())),
            (
                "entries".to_owned(),
                Json::Arr(
                    self.iter_oldest_first()
                        .map(|slot| {
                            Json::Obj(vec![
                                ("key".to_owned(), Json::Str(slot.key.to_string())),
                                (
                                    "result".to_owned(),
                                    Json::parse(&slot.value).unwrap_or(Json::Null),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Rebuilds a cache from a persisted index; `None` when the index
    /// version or the database fingerprint does not match.
    pub fn from_json(json: &Json, capacity: usize, db_fingerprint: &str) -> Option<Self> {
        if json.get("version")?.as_u64()? != CACHE_INDEX_VERSION {
            return None;
        }
        if json.get("db")?.as_str()? != db_fingerprint {
            return None;
        }
        let mut cache = ResultCache::new(capacity);
        for entry in json.get("entries")?.as_arr()? {
            let key = entry.get("key")?.as_str()?;
            let result = entry.get("result")?;
            if matches!(result, Json::Null) {
                continue;
            }
            cache.insert(key, result.to_string_compact());
        }
        cache.evictions = 0;
        Some(cache)
    }

    /// Writes the index atomically (temp file + rename), creating
    /// parent directories as needed.
    pub fn save(&self, path: &Path, db_fingerprint: &str) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_json(db_fingerprint).to_string_pretty())?;
        std::fs::rename(&tmp, path)
    }

    /// Loads an index if one exists and matches; `Ok(None)` for a
    /// missing file, an unparsable index, or a version/database
    /// mismatch — all of which mean "start empty", not "fail".
    pub fn load(path: &Path, capacity: usize, db_fingerprint: &str) -> io::Result<Option<Self>> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        Ok(Json::parse(&text)
            .ok()
            .and_then(|json| ResultCache::from_json(&json, capacity, db_fingerprint)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(n: u64) -> String {
        Json::Obj(vec![("cycles".to_owned(), Json::Num(n as f64))]).to_string_compact()
    }

    #[test]
    fn counts_hits_and_misses() {
        let mut c = ResultCache::new(4);
        assert_eq!(c.get("a"), None);
        c.insert("a", value(1));
        assert_eq!(c.get("a"), Some(value(1)));
        assert_eq!(c.get("b"), None);
        assert_eq!((c.hits(), c.misses()), (1, 2));
    }

    #[test]
    fn evicts_least_recently_used_at_capacity() {
        let mut c = ResultCache::new(2);
        c.insert("a", value(1));
        c.insert("b", value(2));
        // Touch "a" so "b" is the LRU entry.
        assert!(c.get("a").is_some());
        c.insert("c", value(3));
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
        assert!(c.get("b").is_none(), "LRU entry should have been evicted");
        assert!(c.get("a").is_some());
        assert!(c.get("c").is_some());
    }

    #[test]
    fn reinsert_refreshes_instead_of_growing() {
        let mut c = ResultCache::new(2);
        c.insert("a", value(1));
        c.insert("b", value(2));
        c.insert("a", value(9));
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.get("a"), Some(value(9)));
        // "b" became LRU; the next insert evicts it, not "a".
        c.insert("c", value(3));
        assert!(c.get("b").is_none());
    }

    #[test]
    fn index_roundtrips_bytes_and_recency() {
        let mut c = ResultCache::new(3);
        c.insert("a", value(1));
        c.insert("b", value(2));
        c.insert("c", value(3));
        assert!(c.get("a").is_some()); // recency order now b, c, a
        let json = c.to_json("db-fp");
        let mut back = ResultCache::from_json(&json, 3, "db-fp").unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.get("b"), Some(value(2)));
        // Recency survived: after touching "b", LRU is "c".
        back.insert("d", value(4));
        assert!(back.get("c").is_none());
        assert_eq!(back.get("a"), Some(value(1)));
    }

    /// The reference LRU the O(1) cache must agree with: entries kept
    /// oldest first in a `Vec`, every operation a linear scan.
    struct VecLru {
        capacity: usize,
        entries: Vec<(String, String)>,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl VecLru {
        fn new(capacity: usize) -> Self {
            VecLru {
                capacity,
                entries: Vec::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
            }
        }

        fn get(&mut self, key: &str) -> Option<String> {
            match self.entries.iter().position(|(k, _)| k == key) {
                Some(i) => {
                    self.hits += 1;
                    let entry = self.entries.remove(i);
                    let value = entry.1.clone();
                    self.entries.push(entry);
                    Some(value)
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }

        fn insert(&mut self, key: &str, value: String) {
            if let Some(i) = self.entries.iter().position(|(k, _)| k == key) {
                self.entries.remove(i);
            }
            self.entries.push((key.to_owned(), value));
            while self.entries.len() > self.capacity {
                self.entries.remove(0);
                self.evictions += 1;
            }
        }

        /// The persisted index the reference would write, in the same
        /// layout as [`ResultCache::to_json`].
        fn to_json(&self, db_fingerprint: &str) -> Json {
            Json::Obj(vec![
                ("version".to_owned(), Json::Num(CACHE_INDEX_VERSION as f64)),
                ("db".to_owned(), Json::Str(db_fingerprint.to_owned())),
                (
                    "entries".to_owned(),
                    Json::Arr(
                        self.entries
                            .iter()
                            .map(|(k, v)| {
                                Json::Obj(vec![
                                    ("key".to_owned(), Json::Str(k.clone())),
                                    ("result".to_owned(), Json::parse(v).unwrap()),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        }
    }

    #[test]
    fn agrees_with_the_reference_lru_on_a_random_stream() {
        let mut rng = hierbus_sim::SplitMix64::new(0x1C0DE);
        for capacity in [1usize, 2, 3, 64] {
            let mut cache = ResultCache::new(capacity);
            let mut model = VecLru::new(capacity);
            // Twice as many keys as slots, so gets both hit and miss
            // and inserts both refresh and evict.
            let keys = 2 * capacity as u64 + 1;
            for step in 0..3000 {
                let key = format!("k{}", rng.range_u64(0, keys));
                if rng.chance(50) {
                    assert_eq!(
                        cache.get(&key),
                        model.get(&key),
                        "capacity {capacity}, step {step}: get({key})"
                    );
                } else {
                    let v = value(rng.next_u64() % 1000);
                    cache.insert(&key, v.clone());
                    model.insert(&key, v);
                }
                assert_eq!(
                    (cache.hits(), cache.misses(), cache.evictions(), cache.len()),
                    (
                        model.hits,
                        model.misses,
                        model.evictions,
                        model.entries.len()
                    ),
                    "capacity {capacity}, step {step}: counters"
                );
                assert_eq!(
                    cache.to_json("db").to_string_pretty(),
                    model.to_json("db").to_string_pretty(),
                    "capacity {capacity}, step {step}: persisted recency order"
                );
            }
        }
    }

    #[test]
    fn index_rejects_version_and_db_mismatch() {
        let mut c = ResultCache::new(2);
        c.insert("a", value(1));
        let json = c.to_json("db-fp");
        assert!(ResultCache::from_json(&json, 2, "other-db").is_none());
        let mut wrong = json.clone();
        wrong.set("version", Json::Num(99.0));
        assert!(ResultCache::from_json(&wrong, 2, "db-fp").is_none());
    }

    #[test]
    fn save_and_load_roundtrip_on_disk() {
        let dir = std::env::temp_dir().join("hierbus_serve_cache_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("cache.index.json");
        let mut c = ResultCache::new(8);
        c.insert("a", value(1));
        c.save(&path, "db-fp").unwrap();
        let mut back = ResultCache::load(&path, 8, "db-fp").unwrap().unwrap();
        assert_eq!(back.get("a"), Some(value(1)));
        assert!(ResultCache::load(&path, 8, "other").unwrap().is_none());
        assert!(ResultCache::load(&dir.join("missing.json"), 8, "db-fp")
            .unwrap()
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
