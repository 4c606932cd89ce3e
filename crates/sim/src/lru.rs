//! Exact LRU cache (§5.1's ground truth for the LRU curves).
//!
//! A slab-allocated intrusive doubly-linked list gives O(1) access,
//! promotion and eviction with no per-node allocation. Residents are found
//! by interned object id (see [`crate::mrc_sim`]): a `Vec<u32>` indexed by
//! id holds each object's node, so a hit is one array load. [`Cache::access`]
//! interns the key through the cache's own key → id map, one hash probe per
//! request; that map and the node index hold one entry per distinct key
//! ever seen, not per resident. Capacity can be counted in objects
//! (hardware-cache convention) or bytes (software KV-cache convention,
//! needed for the variable-size experiments).

use crate::{Cache, CacheStats, Capacity, IdCache, Interner, NIL};
use krr_trace::Request;

#[derive(Debug, Clone, Copy)]
struct Node {
    id: u32,
    size: u32,
    prev: u32,
    next: u32,
}

/// Exact LRU cache.
#[derive(Debug, Clone)]
pub struct ExactLru {
    capacity: Capacity,
    ids: Interner,
    /// Node of each interned id, [`NIL`] when not resident.
    node_of: Vec<u32>,
    nodes: Vec<Node>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    used_bytes: u64,
    stats: CacheStats,
}

impl ExactLru {
    /// Creates an empty cache with the given capacity.
    #[must_use]
    pub fn new(capacity: Capacity) -> Self {
        assert!(capacity.limit() > 0, "capacity must be positive");
        Self {
            capacity,
            ids: Interner::default(),
            node_of: Vec::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            used_bytes: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of resident objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// True if nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.head == NIL
    }

    /// Bytes currently resident.
    #[must_use]
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Keys from most- to least-recently used (diagnostic/test use).
    #[must_use]
    pub fn recency_order(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len());
        let mut i = self.head;
        while i != NIL {
            out.push(self.ids.key(self.nodes[i as usize].id));
            i = self.nodes[i as usize].next;
        }
        out
    }

    fn used(&self) -> u64 {
        match self.capacity {
            Capacity::Objects(_) => self.len() as u64,
            Capacity::Bytes(_) => self.used_bytes,
        }
    }

    fn unlink(&mut self, i: u32) {
        let node = self.nodes[i as usize];
        if node.prev != NIL {
            self.nodes[node.prev as usize].next = node.next;
        } else {
            self.head = node.next;
        }
        if node.next != NIL {
            self.nodes[node.next as usize].prev = node.prev;
        } else {
            self.tail = node.prev;
        }
    }

    fn push_front(&mut self, i: u32) {
        self.nodes[i as usize].prev = NIL;
        self.nodes[i as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn evict_tail(&mut self) {
        debug_assert!(self.tail != NIL);
        let victim = self.tail;
        self.unlink(victim);
        let node = self.nodes[victim as usize];
        self.node_of[node.id as usize] = NIL;
        self.used_bytes -= u64::from(node.size);
        self.free.push(victim);
    }

    fn insert(&mut self, id: u32, size: u32) {
        let node = Node {
            id,
            size,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        self.node_of[id as usize] = i;
        self.used_bytes += u64::from(size);
        self.push_front(i);
    }
}

impl Cache for ExactLru {
    fn access(&mut self, req: &Request) -> bool {
        let id = self.ids.intern(req.key);
        self.access_id(id, req.size)
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }
}

impl IdCache for ExactLru {
    fn access_id(&mut self, id: u32, size: u32) -> bool {
        let size = size.max(1);
        if id as usize >= self.node_of.len() {
            self.node_of.resize(id as usize + 1, NIL);
        }
        let i = self.node_of[id as usize];
        if i != NIL {
            self.stats.hits += 1;
            // Promote and refresh size.
            self.unlink(i);
            let old = self.nodes[i as usize].size;
            self.nodes[i as usize].size = size;
            self.used_bytes = self.used_bytes - u64::from(old) + u64::from(size);
            self.push_front(i);
            // A growing object can push the cache over its byte budget.
            while self.used() > self.capacity.limit() && self.len() > 1 {
                self.evict_tail();
            }
            if self.used() > self.capacity.limit() {
                // The resized object alone no longer fits; drop it (the
                // access itself was still a hit). It sits at the list head,
                // which equals the tail when it is the only resident.
                self.evict_tail();
            }
            return true;
        }
        self.stats.misses += 1;
        if u64::from(size) > self.capacity.limit() {
            // Object larger than the whole cache: bypass.
            return false;
        }
        let need = match self.capacity {
            Capacity::Objects(_) => 1,
            Capacity::Bytes(_) => u64::from(size),
        };
        while self.used() + need > self.capacity.limit() {
            self.evict_tail();
        }
        self.insert(id, size);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(key: u64) -> Request {
        Request::unit(key)
    }

    #[test]
    fn hits_and_misses_basic() {
        let mut c = ExactLru::new(Capacity::Objects(2));
        assert!(!c.access(&get(1)));
        assert!(!c.access(&get(2)));
        assert!(c.access(&get(1)));
        assert!(!c.access(&get(3))); // evicts 2 (LRU)
        assert!(!c.access(&get(2)));
        assert!(c.access(&get(3)));
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 4);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = ExactLru::new(Capacity::Objects(3));
        for k in [1, 2, 3] {
            c.access(&get(k));
        }
        c.access(&get(1)); // order: 1,3,2
        c.access(&get(4)); // evicts 2
        assert_eq!(c.recency_order(), vec![4, 1, 3]);
        assert!(!c.access(&get(2)));
    }

    #[test]
    fn byte_capacity_counts_sizes() {
        let mut c = ExactLru::new(Capacity::Bytes(100));
        assert!(!c.access(&Request::get(1, 60)));
        assert!(!c.access(&Request::get(2, 30)));
        assert_eq!(c.used_bytes(), 90);
        assert!(!c.access(&Request::get(3, 30))); // evicts 1
        assert_eq!(c.recency_order(), vec![3, 2]);
        assert_eq!(c.used_bytes(), 60);
    }

    #[test]
    fn oversized_object_bypasses() {
        let mut c = ExactLru::new(Capacity::Bytes(100));
        c.access(&Request::get(1, 50));
        assert!(!c.access(&Request::get(2, 500)));
        assert_eq!(c.len(), 1);
        assert!(c.access(&Request::get(1, 50)), "resident object unharmed");
    }

    #[test]
    fn resize_on_hit_can_trigger_eviction() {
        let mut c = ExactLru::new(Capacity::Bytes(100));
        c.access(&Request::get(1, 40));
        c.access(&Request::get(2, 40));
        assert!(c.access(&Request::get(2, 90))); // grows; must evict 1
        assert_eq!(c.recency_order(), vec![2]);
        assert_eq!(c.used_bytes(), 90);
    }

    #[test]
    fn inclusion_property_holds_across_sizes() {
        // LRU is a stack algorithm: contents of a size-C cache are a subset
        // of a size-(C+1) cache at every step.
        use krr_core::rng::Xoshiro256;
        let mut small = ExactLru::new(Capacity::Objects(8));
        let mut large = ExactLru::new(Capacity::Objects(9));
        let mut rng = Xoshiro256::seed_from_u64(1);
        for _ in 0..5000 {
            let r = get(rng.below(50));
            small.access(&r);
            large.access(&r);
            let big: std::collections::HashSet<u64> = large.recency_order().into_iter().collect();
            for k in small.recency_order() {
                assert!(big.contains(&k), "inclusion violated for key {k}");
            }
        }
    }

    #[test]
    fn loop_larger_than_cache_never_hits() {
        let mut c = ExactLru::new(Capacity::Objects(10));
        for i in 0..1000u64 {
            assert!(
                !c.access(&get(i % 11)),
                "LRU must thrash on loop > capacity"
            );
        }
    }

    #[test]
    fn slab_reuses_freed_nodes() {
        let mut c = ExactLru::new(Capacity::Objects(2));
        for k in 0..100u64 {
            c.access(&get(k));
        }
        assert!(c.nodes.len() <= 3, "slab grew to {}", c.nodes.len());
    }
}
