"""RPR022 fixture: indexed-selection pairing below the framework root."""


class VirtualTimeScheduler:
    """Framework root (by name): default spec off, indexed hook a stub."""

    def _index_spec(self):
        return None

    def _select_indexed(self, thread_id, vnow):
        raise NotImplementedError


class IndexedScheduler(VirtualTimeScheduler):
    """Compliant: spec paired with a concrete indexed selection."""

    def _index_spec(self):
        return {"finish": True}

    def _select_indexed(self, thread_id, vnow):
        return None


class InheritedIndexScheduler(IndexedScheduler):
    """Compliant: ``_select_indexed`` found further up the base chain."""

    def _index_spec(self):
        return {"finish": True, "start": True}


class HalfIndexedScheduler(VirtualTimeScheduler):
    """Violation: advertises a spec, inherits only the root's stub."""

    def _index_spec(self):  # line 34: RPR022 (no _select_indexed)
        return {"finish": True}


class OutsideFramework:
    """Not below the root: free to define half a surface."""

    def _index_spec(self):
        return {"finish": True}
