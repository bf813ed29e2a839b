// Fixture: a ranked guard live across a virtual-time charge, a gossip
// drain or a ring write serializes every key on the stripe behind charged
// work — drop the guard first (or justify the serialization with an allow).

impl Cluster {
    fn flush_with_guard(&self, ctx: &mut OpCtx, key: &ObjectKey) -> Result<()> {
        let _guard = self.op_lock(&key.ring_key()).lock();
        ctx.charge(PrimKind::Put, 1); // VIOLATION: charge under the op stripe
        Ok(())
    }

    fn drain_with_guard(&self, node: &StorageNode) {
        let map = self.containers[0].write();
        let msgs = take_outbox(node); // VIOLATION: gossip drain under the shard guard
        drop((map, msgs));
    }

    fn apply_with_guard(&self, mw: &H2Middleware) {
        let _stripe = self.stripes[0].lock();
        mw.apply_inbox(); // VIOLATION: gossip apply under the node stripe
    }

    fn cycle_with_guard(&self, mw: &H2Middleware, rings: &[FdKey], op: &mut OpCtx) {
        let _stripe = self.stripes[0].lock();
        mw.ring_cycle(op, rings); // VIOLATION: ring read-modify-write under the node stripe
    }

    fn rewrite_with_guard(&self, mw: &H2Middleware, keys: &H2Keys, ns: NamespaceId, op: &mut OpCtx) {
        let _stripe = self.stripes[0].lock();
        mw.write_ring(op, keys, ns, &self.ring); // VIOLATION: ring rewrite under the node stripe
    }
}
