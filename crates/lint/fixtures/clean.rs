//! Positive fixture: every hazard justified; the audit must be clean
//! even under the strictest classification (det-critical lib code).
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

pub struct State {
    table: HashMap<u64, u64>,
    hits: AtomicU64,
}

impl State {
    pub fn merge(&mut self) -> Vec<u64> {
        // det-ok: folded into a sum, order-insensitive
        let total: u64 = self.table.values().sum();
        // relaxed-ok: standalone counter, no release/acquire pairing
        self.hits.fetch_add(total, Ordering::Relaxed);
        vec![total]
    }

    pub fn reset(&mut self) -> u64 {
        self.table.clear();
        self.hits.swap(7, Ordering::AcqRel);
        self.hits.load(Ordering::SeqCst)
    }
}
