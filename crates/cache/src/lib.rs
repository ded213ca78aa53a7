//! # tricount-cache — bounded, coherent caching of remote adjacency lists
//!
//! The request–response counting variants (CETRIC/DITRIC), distributed LCC,
//! edge support and the delta-update protocol all ship adjacency lists from
//! the rank that owns them to the rank that needs them.  Against a resident
//! graph the same lists are re-shipped on every query; this crate gives each
//! PE a bounded cache of lists it has received so the owner can send a
//! two-word *reference* instead of the full list.
//!
//! ## Design: a mirrored directory, committed deterministically
//!
//! The cache is **symmetric**: for every pair `(owner i, holder j)` there is
//! a *held* partition on rank `j` (the actual lists, keyed by
//! [`CacheKey`]) and a *mirror* partition on rank `i` (the owner's record of
//! what `j` holds — sizes only, no data).  The owner consults its mirror
//! before posting a list; a mirror hit means `j` is guaranteed to have the
//! entry, so a reference is safe.  Both partitions run the **same**
//! deterministic admission and eviction logic over the **same** event
//! stream, so they can never disagree.
//!
//! Determinism under reordering transports (grid routing, real threads) is
//! obtained by the *prior-run-entries-only* rule: during a run, lookups see
//! only the snapshot committed before the run started; everything shipped or
//! used during the run is staged into a [`CacheRunLog`] and committed at a
//! deterministic point afterwards, in canonical sorted order (touches, then
//! inserts, each sorted by key).  Arrival order therefore cannot influence
//! cache state, and the meters stay bit-identical across transports.
//!
//! ## Coherence
//!
//! The delta protocol is the single writer.  When `update_route` discovers
//! the effective edges of a batch, each owner looks up the touched vertices
//! in its mirror partitions and emits, to every holder, either a targeted
//! *invalidation* or (for [`ListKind::Full`] entries, which track the
//! current merged adjacency) an in-place *patch* — the inserted/deleted
//! neighbor ids.  A patched entry equals the post-state merged list, so
//! subsequent reference sends remain bit-exact.  Compaction re-runs
//! orientation and contraction, so [`ListKind::Oriented`] and
//! [`ListKind::Contracted`] entries are flushed when the generation tag on
//! `PreparedRank` bumps; `Full` entries describe the merged graph, which
//! compaction preserves, so they survive.
//!
//! The crate is dependency-free and knows nothing about the runtime: rank
//! programs talk to it through a [`CacheSession`], and the caller (engine,
//! driver or test) owns the per-rank [`RankCache`] storage.

#![warn(missing_docs)]

use std::borrow::Cow;
use std::collections::BTreeMap;

/// Which derived form of an adjacency list an entry caches.
///
/// The kind is part of the key: the same vertex can have a contracted list
/// (CETRIC / LCC), an oriented list (DITRIC family) and a full merged list
/// (support / delta) cached independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ListKind {
    /// The current merged adjacency `N(v)` (base CSR ⊕ overlay).  Kept
    /// coherent by `update_route` patches/invalidations and survives
    /// compaction (which preserves merged content).
    Full,
    /// The degree-oriented out-neighborhood `A(v)` shipped by the DITRIC
    /// family.  Flushed on generation bump.
    Oriented,
    /// The contracted cut-graph list shipped by CETRIC and distributed LCC.
    /// Flushed on generation bump.
    Contracted,
}

/// Cache key: list kind plus global vertex id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// Which derived list this entry holds.
    pub kind: ListKind,
    /// Global vertex id of the list's head.
    pub v: u64,
}

impl CacheKey {
    /// Convenience constructor.
    pub fn new(kind: ListKind, v: u64) -> Self {
        CacheKey { kind, v }
    }
}

/// Cache configuration, carried on `DistConfig` (and therefore `Copy`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Master switch.  Off means the protocols use their original wire
    /// formats and never consult the cache, so runs are bit-identical to a
    /// build without the cache.
    pub enabled: bool,
    /// Total per-PE budget for cached list words.  Split evenly into
    /// per-(owner, holder) partition budgets so the sender-side mirror and
    /// the receiver-side store can run identical eviction independently.
    pub budget_words: u64,
    /// Emit and apply coherence traffic on `update_route`.  Disabling this
    /// is a *mutation knob for tests only*: caches go stale and cached
    /// counts diverge — the verify bit-equality harness must catch it.
    pub coherence: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            enabled: false,
            budget_words: 1 << 22,
            coherence: true,
        }
    }
}

impl CacheConfig {
    /// An enabled config with the given per-PE word budget.
    pub fn with_budget(budget_words: u64) -> Self {
        CacheConfig {
            enabled: true,
            budget_words,
            ..CacheConfig::default()
        }
    }
}

/// Whose partition a log event targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Peer {
    /// A held partition: `Held(owner)` — lists this rank received from
    /// `owner`.
    Held(usize),
    /// A mirror partition: `Mirror(holder)` — this rank's record of what
    /// `holder` caches of *our* lists.
    Mirror(usize),
}

#[derive(Debug, Clone, Default)]
struct Entry {
    words: u64,
    last_touch: u64,
    /// `Some` in held partitions, `None` in mirrors.
    data: Option<Vec<u64>>,
}

#[derive(Debug, Clone, Default)]
struct Partition {
    entries: BTreeMap<CacheKey, Entry>,
    used_words: u64,
    clock: u64,
}

impl Partition {
    /// LRU recency refresh: a reference moves the entry to the back of the
    /// eviction order.
    fn touch(&mut self, key: &CacheKey) {
        if let Some(e) = self.entries.get_mut(key) {
            e.last_touch = self.clock;
            self.clock += 1;
        }
    }

    fn remove(&mut self, key: &CacheKey) -> Option<Entry> {
        let e = self.entries.remove(key)?;
        self.used_words -= e.words;
        Some(e)
    }

    /// Insert with eviction; returns how many entries were evicted.
    fn insert(&mut self, key: CacheKey, words: u64, data: Option<Vec<u64>>, budget: u64) -> u64 {
        if words > budget {
            // Oversized lists are never admitted — identically on both
            // sides, so the mirror can't promise what the holder dropped.
            return 0;
        }
        if let Some(existing) = self.entries.get_mut(&key) {
            // Re-insert (e.g. two concurrent query jobs staged the same
            // list): refresh content and recency, keep accounting straight.
            self.used_words -= existing.words;
            self.used_words += words;
            existing.words = words;
            existing.data = data;
            existing.last_touch = self.clock;
            self.clock += 1;
            return 0;
        }
        let mut evicted = 0;
        while self.used_words + words > budget {
            // Victim: minimum (last_touch, key) — deterministic on both
            // sides of the mirror.
            let victim = self
                .entries
                .iter()
                .min_by_key(|(k, e)| (e.last_touch, **k))
                .map(|(k, _)| *k)
                .expect("eviction loop with empty partition");
            self.remove(&victim);
            evicted += 1;
        }
        self.entries.insert(
            key,
            Entry {
                words,
                last_touch: self.clock,
                data,
            },
        );
        self.clock += 1;
        self.used_words += words;
        evicted
    }
}

/// Per-PE cache storage: held partitions (lists received, keyed by owner)
/// plus mirror partitions (what each holder keeps of our lists).
#[derive(Debug, Clone)]
pub struct RankCache {
    partition_budget: u64,
    generation: u64,
    held: BTreeMap<usize, Partition>,
    mirror: BTreeMap<usize, Partition>,
}

impl RankCache {
    /// A cache for one of `num_ranks` PEs.  `memory_limit_words` is the
    /// §IV-A per-PE memory bound, if configured; the cache may never claim
    /// more words than it.
    pub fn new(cfg: CacheConfig, num_ranks: usize, memory_limit_words: Option<u64>) -> Self {
        let budget = cfg.budget_words.min(memory_limit_words.unwrap_or(u64::MAX));
        RankCache {
            partition_budget: budget / num_ranks.max(1) as u64,
            generation: 0,
            held: BTreeMap::new(),
            mirror: BTreeMap::new(),
        }
    }

    /// The per-(owner, holder) partition budget in words.
    pub fn partition_budget(&self) -> u64 {
        self.partition_budget
    }

    /// Current generation tag (matches `PreparedRank::generation`).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Move to a new generation: orientation and contraction are recomputed
    /// by compaction, so [`ListKind::Oriented`] / [`ListKind::Contracted`]
    /// entries are flushed everywhere.  [`ListKind::Full`] entries describe
    /// the merged graph, which compaction preserves, so they survive.
    pub fn set_generation(&mut self, generation: u64) {
        if generation == self.generation {
            return;
        }
        self.generation = generation;
        for part in self.held.values_mut().chain(self.mirror.values_mut()) {
            let stale: Vec<CacheKey> = part
                .entries
                .keys()
                .filter(|k| k.kind != ListKind::Full)
                .copied()
                .collect();
            for key in stale {
                part.remove(&key);
            }
        }
    }

    /// Does our mirror say `holder` has `key` cached?  Returns the recorded
    /// word count.
    pub fn mirror_lookup(&self, holder: usize, key: &CacheKey) -> Option<u64> {
        self.mirror
            .get(&holder)
            .and_then(|p| p.entries.get(key))
            .map(|e| e.words)
    }

    /// Fetch a held list received from `owner`.
    pub fn held_lookup(&self, owner: usize, key: &CacheKey) -> Option<&[u64]> {
        self.held
            .get(&owner)
            .and_then(|p| p.entries.get(key))
            .and_then(|e| e.data.as_deref())
    }

    /// Every holder whose mirror partition contains `key` (for coherence
    /// fan-out on update).
    pub fn holders_of(&self, key: &CacheKey) -> Vec<usize> {
        self.mirror
            .iter()
            .filter(|(_, p)| p.entries.contains_key(key))
            .map(|(j, _)| *j)
            .collect()
    }

    /// Owner side of an invalidation: forget that `holder` has `key`.
    pub fn mirror_invalidate(&mut self, holder: usize, key: &CacheKey) {
        if let Some(p) = self.mirror.get_mut(&holder) {
            p.remove(key);
        }
    }

    /// Owner side of a patch: the holder's entry for `key` grows by `ins`
    /// and shrinks by `del` words.  Growth may overshoot the partition
    /// budget; both sides tolerate it identically until the next insert.
    pub fn mirror_patch(&mut self, holder: usize, key: &CacheKey, ins: u64, del: u64) {
        if let Some(p) = self.mirror.get_mut(&holder) {
            if let Some(e) = p.entries.get_mut(key) {
                e.words = e.words + ins - del.min(e.words);
                p.used_words = p.used_words + ins - del.min(p.used_words);
            }
        }
    }

    /// Holder side of an invalidation: drop the entry received from
    /// `owner`.  Returns whether an entry was actually dropped.
    pub fn held_invalidate(&mut self, owner: usize, key: &CacheKey) -> bool {
        self.held
            .get_mut(&owner)
            .and_then(|p| p.remove(key))
            .is_some()
    }

    /// Holder side of a patch: splice `other` into (or out of) the sorted
    /// cached list.  Returns whether an entry was present and patched.
    pub fn held_patch(&mut self, owner: usize, key: &CacheKey, insert: bool, other: u64) -> bool {
        let Some(part) = self.held.get_mut(&owner) else {
            return false;
        };
        let Some(entry) = part.entries.get_mut(key) else {
            return false;
        };
        let data = entry.data.as_mut().expect("held entry without data");
        match data.binary_search(&other) {
            Ok(pos) if !insert => {
                data.remove(pos);
                entry.words -= 1;
                part.used_words -= 1;
                true
            }
            Err(pos) if insert => {
                data.insert(pos, other);
                entry.words += 1;
                part.used_words += 1;
                true
            }
            // The effectiveness filter upstream guarantees inserts are
            // absent and deletes present; anything else is a no-op.
            _ => true,
        }
    }

    /// Commit a run log: touches first, then inserts, each in canonical
    /// sorted order, with duplicates collapsed.  Returns the number of
    /// held-side evictions (the mirror side runs the same evictions but
    /// they are the same events, so they are not double-counted).
    pub fn commit(&mut self, log: &CacheRunLog) -> u64 {
        let mut touches = log.touches.clone();
        touches.sort_unstable();
        touches.dedup();
        for (peer, key) in &touches {
            self.partition_mut(*peer).touch(key);
        }
        let mut order: Vec<usize> = (0..log.inserts.len()).collect();
        order.sort_unstable_by_key(|&i| (log.inserts[i].peer, log.inserts[i].key));
        order.dedup_by_key(|i| (log.inserts[*i].peer, log.inserts[*i].key));
        let mut held_evictions = 0;
        for i in order {
            let ins = &log.inserts[i];
            let budget = self.partition_budget;
            let is_held = matches!(ins.peer, Peer::Held(_));
            let part = self.partition_mut(ins.peer);
            let evicted = part.insert(ins.key, ins.words, ins.data.clone(), budget);
            if is_held {
                held_evictions += evicted;
            }
        }
        held_evictions
    }

    fn partition_mut(&mut self, peer: Peer) -> &mut Partition {
        match peer {
            Peer::Held(owner) => self.held.entry(owner).or_default(),
            Peer::Mirror(holder) => self.mirror.entry(holder).or_default(),
        }
    }

    /// Number of held (data-carrying) entries currently resident.
    pub fn held_entries(&self) -> u64 {
        self.held.values().map(|p| p.entries.len() as u64).sum()
    }

    /// Words of held list data currently resident.
    pub fn resident_words(&self) -> u64 {
        self.held.values().map(|p| p.used_words).sum()
    }

    /// Drop everything (used when a run is abandoned and the log is lost —
    /// cold is always safe, stale never is).
    pub fn flush_all(&mut self) {
        self.held.clear();
        self.mirror.clear();
    }

    #[cfg(test)]
    fn mirror_words(&self, holder: usize) -> u64 {
        self.mirror.get(&holder).map_or(0, |p| p.used_words)
    }
}

/// One staged insert in a [`CacheRunLog`].
#[derive(Debug, Clone)]
pub struct StagedInsert {
    /// Which partition the entry lands in.
    pub peer: Peer,
    /// The entry's key.
    pub key: CacheKey,
    /// List length in words.
    pub words: u64,
    /// List data (held side) or `None` (mirror side).
    pub data: Option<Vec<u64>>,
}

/// Everything a run wants to change in the cache, staged for deterministic
/// post-run commit.
#[derive(Debug, Clone, Default)]
pub struct CacheRunLog {
    /// Reference uses: recency refreshes for existing entries.
    pub touches: Vec<(Peer, CacheKey)>,
    /// New entries shipped (held side) or promised (mirror side).
    pub inserts: Vec<StagedInsert>,
}

impl CacheRunLog {
    /// True when the run neither touched nor staged anything.
    pub fn is_empty(&self) -> bool {
        self.touches.is_empty() && self.inserts.is_empty()
    }
}

/// Counters a run reports about its cache interactions.  Word counters
/// measure adjacency *list* words (headers excluded), which is the quantity
/// the words-saved claim is made about.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheReport {
    /// Sender-side mirror lookups performed.
    pub lookups: u64,
    /// Lookups that allowed a reference send.
    pub hits: u64,
    /// Lookups that fell through to a full send.
    pub misses: u64,
    /// Adjacency list words actually shipped (full sends, all modes).
    pub words_shipped: u64,
    /// Adjacency list words avoided by reference sends.
    pub words_saved: u64,
    /// Holder-side invalidations applied.
    pub invalidations: u64,
    /// Holder-side in-place patches applied.
    pub patches: u64,
    /// Held-side evictions during commit.
    pub evictions: u64,
    /// Lists staged for insertion on the holder side.
    pub staged: u64,
}

impl CacheReport {
    /// Accumulate another report into this one.
    pub fn absorb(&mut self, other: &CacheReport) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.misses += other.misses;
        self.words_shipped += other.words_shipped;
        self.words_saved += other.words_saved;
        self.invalidations += other.invalidations;
        self.patches += other.patches;
        self.evictions += other.evictions;
        self.staged += other.staged;
    }
}

/// Where a shipped list's length is known from (see
/// [`CacheSession::encode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame {
    /// The list runs to the end of the message.
    Tail,
    /// The list carries its length, so records can be packed back to back.
    Counted,
}

/// Which state a delta count pass runs against.  The deletion pass streams
/// *pre-state* lists while cached `Full` entries are already patched to the
/// post-state, so it must neither reference nor stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePass {
    /// Pre-state pass: meter shipped words, but no lookups and no staging.
    Pre,
    /// Post-state pass (the default): full cache participation.
    Post,
}

enum Handle<'a> {
    /// No session: legacy call sites; zero overhead, no metering.
    Off,
    /// Cache disabled but adjacency words still metered (so `EngineStats`
    /// can report the adjacency/collective comm split either way).
    Metered,
    /// Concurrent query run: snapshot lookups, log returned to the caller
    /// (the engine) for deterministic in-order commit.
    Read(&'a RankCache),
    /// Exclusive run (updates, one-shot drivers): lookups plus eager
    /// coherence, self-commits on [`CacheSession::finish`].
    Write(&'a mut RankCache),
}

/// What [`CacheSession::finish`] hands back.
#[derive(Debug, Default)]
pub struct CacheRunOutcome {
    /// The staged log (empty for write sessions, which commit themselves).
    pub log: CacheRunLog,
    /// The run's counters.
    pub report: CacheReport,
}

/// A rank program's handle on the cache for one run.
///
/// Protocol code writes every shipped list with
/// [`encode`](CacheSession::encode), reads it back with
/// [`decode`](CacheSession::decode), and the caller finishes the session
/// after the run.  With an [`off`](CacheSession::off) session every method
/// is a cheap no-op and the wire formats are the original ones,
/// bit-identical to a build without this crate.
pub struct CacheSession<'a> {
    handle: Handle<'a>,
    pass: CachePass,
    log: CacheRunLog,
    report: CacheReport,
}

impl<'a> CacheSession<'a> {
    /// No session at all (legacy entry points).
    pub fn off() -> Self {
        CacheSession {
            handle: Handle::Off,
            pass: CachePass::Post,
            log: CacheRunLog::default(),
            report: CacheReport::default(),
        }
    }

    /// Metering-only session: cache disabled, adjacency words counted.
    pub fn metered() -> Self {
        CacheSession {
            handle: Handle::Metered,
            ..CacheSession::off()
        }
    }

    /// Read session over a committed snapshot (concurrent query runs).
    pub fn read(cache: &'a RankCache) -> Self {
        CacheSession {
            handle: Handle::Read(cache),
            ..CacheSession::off()
        }
    }

    /// Write session with exclusive cache access (updates, one-shot runs).
    /// Aligns the cache to `generation` first, flushing stale kinds.
    pub fn write(cache: &'a mut RankCache, generation: u64) -> Self {
        cache.set_generation(generation);
        CacheSession {
            handle: Handle::Write(cache),
            ..CacheSession::off()
        }
    }

    /// Whether the cache-aware wire formats are in effect.  Must agree on
    /// every rank of a run, so it is purely a function of the config.
    pub fn active(&self) -> bool {
        matches!(self.handle, Handle::Read(_) | Handle::Write(_))
    }

    /// Set the pass mode (see [`CachePass`]).
    pub fn set_pass(&mut self, pass: CachePass) {
        self.pass = pass;
    }

    fn cache(&self) -> Option<&RankCache> {
        match &self.handle {
            Handle::Read(c) => Some(c),
            Handle::Write(c) => Some(c),
            _ => None,
        }
    }

    fn cache_mut(&mut self) -> Option<&mut RankCache> {
        match &mut self.handle {
            Handle::Write(c) => Some(c),
            _ => None,
        }
    }

    /// Sender side: appends the `(kind, v)` list bound for `holder` to
    /// `buf` as one frame.  `L` is `list`, `|L|` its length:
    ///
    /// | session            | [`Frame::Tail`] | [`Frame::Counted`] |
    /// |--------------------|-----------------|--------------------|
    /// | off, metered       | `L…`            | `\|L\|, L…`        |
    /// | read/write, miss   | `0, L…`         | `0, \|L\|, L…`     |
    /// | read/write, hit    | `1`             | `1`                |
    ///
    /// The leading word is the reference flag: `1` means the holder
    /// resolves the list from its cache.  Off and metered sessions write
    /// the bare list, so the protocols keep their original wire formats.
    /// Shipped and saved words are metered in every mode.  The per-protocol
    /// message layouts around the frame are tabled in DESIGN.md §5i.
    pub fn encode(
        &mut self,
        buf: &mut Vec<u64>,
        holder: usize,
        kind: ListKind,
        v: u64,
        list: &[u64],
        frame: Frame,
    ) {
        if self.sender_check(holder, kind, v, list.len() as u64) {
            buf.push(1);
            return;
        }
        if self.active() {
            buf.push(0);
        }
        if frame == Frame::Counted {
            buf.push(list.len() as u64);
        }
        buf.extend_from_slice(list);
    }

    /// Receiver side: reads one frame written by
    /// [`encode`](CacheSession::encode) off the front of `words` and
    /// returns the `(kind, v)` list shipped by `owner`.  A reference
    /// resolves against the held entry; a full list is staged for caching
    /// (post-state passes of active sessions).  `words` is left just past
    /// the frame.
    pub fn decode<'p>(
        &mut self,
        owner: usize,
        kind: ListKind,
        v: u64,
        frame: Frame,
        words: &mut &'p [u64],
    ) -> Cow<'p, [u64]> {
        let w: &'p [u64] = words;
        let active = self.active();
        if active && w[0] == 1 {
            *words = &w[1..];
            return Cow::Owned(self.recv_ref(owner, kind, v));
        }
        let rest = &w[usize::from(active)..];
        let (list, after) = match frame {
            Frame::Tail => rest.split_at(rest.len()),
            Frame::Counted => rest[1..].split_at(rest[0] as usize),
        };
        *words = after;
        self.recv_full(owner, kind, v, list);
        Cow::Borrowed(list)
    }

    /// May a reference be sent to `holder` instead of the `words`-long list
    /// for `(kind, v)`?  Meters shipped/saved words in every mode and
    /// stages the mirror bookkeeping when active.
    fn sender_check(&mut self, holder: usize, kind: ListKind, v: u64, words: u64) -> bool {
        if !self.active() || self.pass == CachePass::Pre {
            self.report.words_shipped += words;
            return false;
        }
        let key = CacheKey::new(kind, v);
        self.report.lookups += 1;
        if self
            .cache()
            .expect("active session without cache")
            .mirror_lookup(holder, &key)
            .is_some()
        {
            self.report.hits += 1;
            self.report.words_saved += words;
            self.log.touches.push((Peer::Mirror(holder), key));
            true
        } else {
            self.report.misses += 1;
            self.report.words_shipped += words;
            self.log.inserts.push(StagedInsert {
                peer: Peer::Mirror(holder),
                key,
                words,
                data: None,
            });
            false
        }
    }

    /// A full list arrived from `owner`; stage it (post-state passes of
    /// active sessions only).
    fn recv_full(&mut self, owner: usize, kind: ListKind, v: u64, list: &[u64]) {
        if !self.active() || self.pass == CachePass::Pre {
            return;
        }
        self.report.staged += 1;
        self.log.inserts.push(StagedInsert {
            peer: Peer::Held(owner),
            key: CacheKey::new(kind, v),
            words: list.len() as u64,
            data: Some(list.to_vec()),
        });
    }

    /// A reference arrived from `owner`; resolve it against the committed
    /// snapshot.  A miss here is a coherence-protocol bug — the owner's
    /// mirror promised the entry — so it panics loudly.
    fn recv_ref(&mut self, owner: usize, kind: ListKind, v: u64) -> Vec<u64> {
        let key = CacheKey::new(kind, v);
        let data = self
            .cache()
            .expect("reference received without an active session")
            .held_lookup(owner, &key)
            .unwrap_or_else(|| {
                panic!("coherence violation: rank has no cached {key:?} from {owner}")
            })
            .to_vec();
        self.log.touches.push((Peer::Held(owner), key));
        data
    }

    /// Owner side of coherence (write sessions): holders of `(Full, v)`.
    pub fn holders_of_full(&self, v: u64) -> Vec<usize> {
        match self.cache() {
            Some(c) => c.holders_of(&CacheKey::new(ListKind::Full, v)),
            None => Vec::new(),
        }
    }

    /// Owner side of coherence: record that `holder`'s `(Full, v)` entry
    /// was invalidated.
    pub fn mirror_invalidate(&mut self, holder: usize, v: u64) {
        let key = CacheKey::new(ListKind::Full, v);
        if let Some(c) = self.cache_mut() {
            c.mirror_invalidate(holder, &key);
        }
    }

    /// Owner side of coherence: record that `holder`'s `(Full, v)` entry
    /// was patched with `ins` insertions and `del` deletions.
    pub fn mirror_patch(&mut self, holder: usize, v: u64, ins: u64, del: u64) {
        let key = CacheKey::new(ListKind::Full, v);
        if let Some(c) = self.cache_mut() {
            c.mirror_patch(holder, &key, ins, del);
        }
    }

    /// Holder side of coherence: apply an incoming `[v, op, other]` record
    /// from `owner` (op 0 = invalidate, 1 = patch-insert, 2 = patch-delete).
    pub fn apply_coherence(&mut self, owner: usize, v: u64, op: u64, other: u64) {
        let key = CacheKey::new(ListKind::Full, v);
        let Some(c) = self.cache_mut() else { return };
        match op {
            0 => {
                if c.held_invalidate(owner, &key) {
                    self.report.invalidations += 1;
                }
            }
            1 => {
                if c.held_patch(owner, &key, true, other) {
                    self.report.patches += 1;
                }
            }
            2 => {
                if c.held_patch(owner, &key, false, other) {
                    self.report.patches += 1;
                }
            }
            _ => panic!("unknown coherence op {op}"),
        }
    }

    /// End the run.  Write sessions commit their log into the cache (the
    /// outcome's log comes back empty); read/metered/off sessions return
    /// the log for the caller to commit at its deterministic point.
    pub fn finish(mut self) -> CacheRunOutcome {
        if let Handle::Write(cache) = &mut self.handle {
            self.report.evictions += cache.commit(&self.log);
            self.log = CacheRunLog::default();
        }
        CacheRunOutcome {
            log: self.log,
            report: self.report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(budget: u64) -> CacheConfig {
        CacheConfig::with_budget(budget)
    }

    fn insert(peer: Peer, v: u64, words: u64) -> StagedInsert {
        StagedInsert {
            peer,
            key: CacheKey::new(ListKind::Contracted, v),
            words,
            data: match peer {
                Peer::Held(_) => Some(vec![7; words as usize]),
                Peer::Mirror(_) => None,
            },
        }
    }

    #[test]
    fn budget_is_honored_and_partitioned() {
        // 2 ranks → partition budget = 100 / 2 = 50 words.
        let mut c = RankCache::new(cfg(100), 2, None);
        assert_eq!(c.partition_budget(), 50);
        let log = CacheRunLog {
            touches: vec![],
            inserts: vec![
                insert(Peer::Held(0), 1, 30),
                insert(Peer::Held(0), 2, 30),
                insert(Peer::Held(1), 3, 40),
            ],
        };
        let evicted = c.commit(&log);
        // Partition (owner 0): 30 + 30 > 50 → the older entry goes.
        assert_eq!(evicted, 1);
        assert!(c
            .held_lookup(0, &CacheKey::new(ListKind::Contracted, 1))
            .is_none());
        assert!(c
            .held_lookup(0, &CacheKey::new(ListKind::Contracted, 2))
            .is_some());
        // Partition (owner 1) is independent.
        assert!(c
            .held_lookup(1, &CacheKey::new(ListKind::Contracted, 3))
            .is_some());
        assert!(c.resident_words() <= 100);
    }

    #[test]
    fn memory_limit_caps_budget() {
        let c = RankCache::new(cfg(1 << 30), 4, Some(400));
        assert_eq!(c.partition_budget(), 100);
    }

    #[test]
    fn oversized_lists_are_never_admitted() {
        let mut c = RankCache::new(cfg(40), 2, None); // partition budget 20
        let log = CacheRunLog {
            touches: vec![],
            inserts: vec![insert(Peer::Held(0), 1, 21)],
        };
        assert_eq!(c.commit(&log), 0);
        assert_eq!(c.held_entries(), 0);
    }

    #[test]
    fn commit_is_order_independent() {
        let a = CacheRunLog {
            touches: vec![
                (Peer::Held(0), CacheKey::new(ListKind::Contracted, 2)),
                (Peer::Held(0), CacheKey::new(ListKind::Contracted, 1)),
            ],
            inserts: vec![insert(Peer::Held(0), 5, 10), insert(Peer::Held(0), 4, 10)],
        };
        let b = CacheRunLog {
            touches: a.touches.iter().rev().copied().collect(),
            inserts: a.inserts.iter().rev().cloned().collect(),
        };
        let mut warm = CacheRunLog::default();
        warm.inserts.push(insert(Peer::Held(0), 1, 10));
        warm.inserts.push(insert(Peer::Held(0), 2, 10));

        let mut ca = RankCache::new(cfg(60), 2, None);
        let mut cb = RankCache::new(cfg(60), 2, None);
        ca.commit(&warm);
        cb.commit(&warm);
        ca.commit(&a);
        cb.commit(&b);
        for v in [1, 2, 4, 5] {
            let k = CacheKey::new(ListKind::Contracted, v);
            assert_eq!(
                ca.held_lookup(0, &k).is_some(),
                cb.held_lookup(0, &k).is_some()
            );
        }
        assert_eq!(ca.resident_words(), cb.resident_words());
    }

    #[test]
    fn lru_touch_protects_entries() {
        let mut c = RankCache::new(cfg(40), 2, None); // partition budget 20
        c.commit(&CacheRunLog {
            touches: vec![],
            inserts: vec![insert(Peer::Held(0), 1, 10), insert(Peer::Held(0), 2, 10)],
        });
        // Touch 1, then insert 3 (forces one eviction): the untouched 2 goes.
        c.commit(&CacheRunLog {
            touches: vec![(Peer::Held(0), CacheKey::new(ListKind::Contracted, 1))],
            inserts: vec![insert(Peer::Held(0), 3, 10)],
        });
        let k = |v| CacheKey::new(ListKind::Contracted, v);
        assert!(c.held_lookup(0, &k(1)).is_some());
        assert!(c.held_lookup(0, &k(2)).is_none());
        assert!(c.held_lookup(0, &k(3)).is_some());
        assert_eq!(c.held_entries(), 2);
    }

    /// Replay the same traffic through an owner's mirror and a holder's
    /// held partition: they must agree on membership forever.
    #[test]
    fn mirror_and_held_stay_in_sync() {
        let mut owner = RankCache::new(cfg(60), 3, None); // rank 0
        let mut holder = RankCache::new(cfg(60), 3, None); // rank 1
        for round in 0..6u64 {
            let mut owner_sess = CacheSession::write(&mut owner, 0);
            let mut wire: Vec<(u64, Option<u64>)> = Vec::new();
            for v in [round % 4, (round + 1) % 4, 7] {
                let words = 5 + v;
                if owner_sess.sender_check(1, ListKind::Contracted, v, words) {
                    wire.push((v, None)); // reference send
                } else {
                    wire.push((v, Some(words))); // full send
                }
            }
            owner_sess.finish();
            let mut holder_sess = CacheSession::write(&mut holder, 0);
            for (v, full) in &wire {
                match full {
                    Some(words) => {
                        let list: Vec<u64> = (0..*words).collect();
                        holder_sess.recv_full(0, ListKind::Contracted, *v, &list);
                    }
                    None => {
                        let _ = holder_sess.recv_ref(0, ListKind::Contracted, *v);
                    }
                }
            }
            holder_sess.finish();
            // Membership must agree on every key.
            for v in 0..9u64 {
                let k = CacheKey::new(ListKind::Contracted, v);
                assert_eq!(
                    owner.mirror_lookup(1, &k).is_some(),
                    holder.held_lookup(0, &k).is_some(),
                    "round {round}, v {v}"
                );
            }
        }
        assert_eq!(owner.mirror_words(1), holder.resident_words());
    }

    #[test]
    fn patch_splices_sorted_lists() {
        let mut c = RankCache::new(cfg(100), 2, None);
        c.commit(&CacheRunLog {
            touches: vec![],
            inserts: vec![StagedInsert {
                peer: Peer::Held(0),
                key: CacheKey::new(ListKind::Full, 9),
                words: 3,
                data: Some(vec![2, 5, 8]),
            }],
        });
        let k = CacheKey::new(ListKind::Full, 9);
        assert!(c.held_patch(0, &k, true, 6));
        assert!(c.held_patch(0, &k, false, 2));
        assert_eq!(c.held_lookup(0, &k).unwrap(), &[5, 6, 8]);
        assert_eq!(c.resident_words(), 3);
    }

    #[test]
    fn generation_bump_flushes_derived_kinds_only() {
        let mut c = RankCache::new(cfg(100), 2, None);
        c.commit(&CacheRunLog {
            touches: vec![],
            inserts: vec![
                StagedInsert {
                    peer: Peer::Held(0),
                    key: CacheKey::new(ListKind::Full, 1),
                    words: 2,
                    data: Some(vec![3, 4]),
                },
                StagedInsert {
                    peer: Peer::Held(0),
                    key: CacheKey::new(ListKind::Oriented, 1),
                    words: 1,
                    data: Some(vec![4]),
                },
                insert(Peer::Held(0), 2, 2),
                insert(Peer::Mirror(1), 2, 2),
            ],
        });
        c.set_generation(1);
        assert!(c
            .held_lookup(0, &CacheKey::new(ListKind::Full, 1))
            .is_some());
        assert!(c
            .held_lookup(0, &CacheKey::new(ListKind::Oriented, 1))
            .is_none());
        assert!(c
            .held_lookup(0, &CacheKey::new(ListKind::Contracted, 2))
            .is_none());
        assert!(c
            .mirror_lookup(1, &CacheKey::new(ListKind::Contracted, 2))
            .is_none());
        assert_eq!(c.resident_words(), 2);
    }

    #[test]
    fn session_modes_meter_without_caching() {
        let mut off = CacheSession::off();
        assert!(!off.sender_check(1, ListKind::Full, 3, 10));
        assert_eq!(off.finish().report.words_shipped, 10);

        let mut metered = CacheSession::metered();
        assert!(!metered.sender_check(1, ListKind::Full, 3, 10));
        metered.recv_full(0, ListKind::Full, 3, &[1, 2]);
        let out = metered.finish();
        assert_eq!(out.report.words_shipped, 10);
        assert_eq!(out.report.staged, 0);
        assert!(out.log.is_empty());
    }

    /// One table over every session mode: an off or metered session writes
    /// the original bare list, an active one a reference on a mirror hit
    /// and the flagged full list on a miss, and `decode` returns the
    /// shipped list either way, leaving the cursor just past the frame.
    #[test]
    fn encode_decode_round_trip_in_every_session_mode() {
        fn open<'a>(mode: &str, cache: &'a mut RankCache) -> CacheSession<'a> {
            match mode {
                "off" => CacheSession::off(),
                "metered" => CacheSession::metered(),
                "read" => CacheSession::read(cache),
                _ => CacheSession::write(cache, 0),
            }
        }
        let hot: &[u64] = &[2, 4, 6];
        let cold: &[u64] = &[1, 3];
        // (mode, v, frame, frame words on the wire); holder 1 caches owner
        // 0's (Contracted, 5) = `hot`, and nothing for v = 7 (`cold`).
        let cases: &[(&str, u64, Frame, &[u64])] = &[
            ("off", 5, Frame::Tail, &[2, 4, 6]),
            ("off", 5, Frame::Counted, &[3, 2, 4, 6]),
            ("metered", 5, Frame::Tail, &[2, 4, 6]),
            ("metered", 7, Frame::Counted, &[2, 1, 3]),
            ("read", 5, Frame::Tail, &[1]),
            ("read", 5, Frame::Counted, &[1]),
            ("read", 7, Frame::Tail, &[0, 1, 3]),
            ("read", 7, Frame::Counted, &[0, 2, 1, 3]),
            ("write", 5, Frame::Tail, &[1]),
            ("write", 5, Frame::Counted, &[1]),
            ("write", 7, Frame::Tail, &[0, 1, 3]),
            ("write", 7, Frame::Counted, &[0, 2, 1, 3]),
        ];
        let warm = |peer| {
            let mut cache = RankCache::new(cfg(100), 2, None);
            cache.commit(&CacheRunLog {
                touches: vec![],
                inserts: vec![StagedInsert {
                    peer,
                    key: CacheKey::new(ListKind::Contracted, 5),
                    words: 3,
                    data: matches!(peer, Peer::Held(_)).then(|| hot.to_vec()),
                }],
            });
            cache
        };
        for &(mode, v, frame, wire) in cases {
            let list = if v == 5 { hot } else { cold };
            let (mut owner, mut holder) = (warm(Peer::Mirror(1)), warm(Peer::Held(0)));
            let mut buf = vec![99]; // a protocol header word
            open(mode, &mut owner).encode(&mut buf, 1, ListKind::Contracted, v, list, frame);
            assert_eq!(&buf[1..], wire, "{mode} v={v} {frame:?}");
            if frame == Frame::Counted {
                buf.push(42); // the next packed record
            }
            let mut words = &buf[1..];
            let got = open(mode, &mut holder).decode(0, ListKind::Contracted, v, frame, &mut words);
            assert_eq!(&*got, list, "{mode} v={v} {frame:?}");
            let rest: &[u64] = if frame == Frame::Counted { &[42] } else { &[] };
            assert_eq!(words, rest, "{mode} v={v} {frame:?}");
        }
    }

    #[test]
    fn pre_pass_neither_references_nor_stages() {
        let mut cache = RankCache::new(cfg(100), 2, None);
        cache.commit(&CacheRunLog {
            touches: vec![],
            inserts: vec![StagedInsert {
                peer: Peer::Mirror(1),
                key: CacheKey::new(ListKind::Full, 3),
                words: 4,
                data: None,
            }],
        });
        let mut s = CacheSession::write(&mut cache, 0);
        s.set_pass(CachePass::Pre);
        // Mirror knows holder 1 has v=3, but the pre pass must ship anyway.
        assert!(!s.sender_check(1, ListKind::Full, 3, 4));
        s.recv_full(0, ListKind::Full, 9, &[1, 2, 3]);
        s.set_pass(CachePass::Post);
        assert!(s.sender_check(1, ListKind::Full, 3, 4));
        let out = s.finish();
        assert_eq!(out.report.hits, 1);
        assert_eq!(out.report.staged, 0);
        assert_eq!(out.report.words_shipped, 4);
        assert_eq!(out.report.words_saved, 4);
    }

    #[test]
    fn coherence_roundtrip_invalidation_and_patch() {
        let mut owner = RankCache::new(cfg(100), 2, None);
        let mut holder = RankCache::new(cfg(100), 2, None);
        // Warm: holder caches (Full, 5) = [1, 9] from owner 0.
        {
            let mut s = CacheSession::write(&mut owner, 0);
            assert!(!s.sender_check(1, ListKind::Full, 5, 2));
            s.finish();
            let mut h = CacheSession::write(&mut holder, 0);
            h.recv_full(0, ListKind::Full, 5, &[1, 9]);
            h.finish();
        }
        // Update touches v=5: insert neighbor 4, delete neighbor 1.
        {
            let mut s = CacheSession::write(&mut owner, 0);
            assert_eq!(s.holders_of_full(5), vec![1]);
            s.mirror_patch(1, 5, 1, 1);
            s.finish();
            let mut h = CacheSession::write(&mut holder, 0);
            h.apply_coherence(0, 5, 1, 4);
            h.apply_coherence(0, 5, 2, 1);
            let rep = h.finish().report;
            assert_eq!(rep.patches, 2);
        }
        assert_eq!(
            holder
                .held_lookup(0, &CacheKey::new(ListKind::Full, 5))
                .unwrap(),
            &[4, 9]
        );
        // Next run: owner still refs, holder resolves the patched list.
        {
            let mut s = CacheSession::write(&mut owner, 0);
            assert!(s.sender_check(1, ListKind::Full, 5, 2));
            s.finish();
            let mut h = CacheSession::write(&mut holder, 0);
            assert_eq!(h.recv_ref(0, ListKind::Full, 5), vec![4, 9]);
            h.finish();
        }
        // Invalidate: both sides forget.
        {
            let mut s = CacheSession::write(&mut owner, 0);
            s.mirror_invalidate(1, 5);
            s.finish();
            let mut h = CacheSession::write(&mut holder, 0);
            h.apply_coherence(0, 5, 0, 0);
            assert_eq!(h.finish().report.invalidations, 1);
        }
        assert!(owner
            .mirror_lookup(1, &CacheKey::new(ListKind::Full, 5))
            .is_none());
        assert!(holder
            .held_lookup(0, &CacheKey::new(ListKind::Full, 5))
            .is_none());
    }

    #[test]
    #[should_panic(expected = "coherence violation")]
    fn ref_to_missing_entry_panics() {
        let cache = RankCache::new(cfg(100), 2, None);
        let mut s = CacheSession::read(&cache);
        let _ = s.recv_ref(0, ListKind::Full, 42);
    }
}
