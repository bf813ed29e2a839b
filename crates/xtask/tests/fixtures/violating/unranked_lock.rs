// Fixture: a bare std lock in non-test code is invisible to the runtime
// validator and to rank inference; only ranked wrappers may be built.

struct Registry {
    entries: Mutex<HashMap<String, u64>>,
    index: std::sync::RwLock<Vec<String>>,
    gate: OrderedMutex<()>,
}

impl Registry {
    fn new() -> Self {
        Registry {
            entries: Mutex::new(HashMap::new()), // VIOLATION
            index: std::sync::RwLock::new(Vec::new()), // VIOLATION
            gate: OrderedMutex::new(lock_rank::OP_STRIPE, "op-stripe", ()),
        }
    }

    fn scratch() -> Arc<Mutex<u64>> {
        Arc::new(std::sync::Mutex::new(0)) // VIOLATION
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_test_may_build_a_plain_lock() {
        let m = std::sync::Mutex::new(1);
        assert_eq!(*m.lock().unwrap(), 1);
    }
}
