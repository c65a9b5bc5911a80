"""The single-node consistency contract of the descriptor store, checked
over generated sequences of publishes, tagless blob puts, retags, tag
deletes, fetches and pre-selections:

* every live ref resolves to the sha256 of the XML it serves, so a
  ``(digest, xml)`` pair is never wrong;
* ``tags()`` always equals a model of the tag directory;
* a pre-selection through a tag reports the digest the tag points at
  now, also right after the tag moved;
* an unknown ref raises :class:`UnknownPlatformError`.
"""

import functools
import hashlib

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import ServiceProtocolError, UnknownPlatformError
from repro.pdl import load_platform, parse_pdl, write_pdl
from repro.service import DescriptorStore

from tests.service.conftest import CUDA_X86_PROGRAM

TAGS = st.sampled_from(["alpha", "beta", "gamma"])
VARIANT_COUNT = 4
VARIANTS = st.integers(0, VARIANT_COUNT - 1)
REF_KINDS = st.sampled_from(["tag", "digest", "prefix"])


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def _pool() -> tuple:
    """``(platform name, xml, canonical digest)`` of each variant: the
    Figure-5 box renamed, so every parse after the first hits the cache."""
    template = write_pdl(load_platform("xeon_x5550_2gpu"))
    attr = 'name="xeon-x5550-2gpu"'
    assert template.count(attr) == 1
    pool = []
    for index in range(VARIANT_COUNT):
        name = f"variant-{index}"
        xml = template.replace(attr, f'name="{name}"', 1)
        pool.append((name, xml, _sha256(write_pdl(parse_pdl(xml)))))
    return tuple(pool)


class StoreConsistency(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = DescriptorStore()
        self.tags: dict = {}  # model: tag -> digest
        self.blobs: set = set()  # model: stored digests
        self.names = {digest: name for name, _, digest in _pool()}

    def _ref(self, kind: str, tag: str, variant: int):
        """A ref of ``kind`` and the digest the model says it resolves
        to (``None``: the store must not know it)."""
        if kind == "tag":
            return tag, self.tags.get(tag)
        digest = _pool()[variant][2]
        expected = digest if digest in self.blobs else None
        return (digest if kind == "digest" else digest[:12]), expected

    @rule(tag=TAGS, variant=VARIANTS)
    def publish(self, tag, variant):
        _, xml, digest = _pool()[variant]
        result = self.store.publish(tag, xml)
        assert result.digest == digest
        assert result.created == (digest not in self.blobs)
        assert result.moved == (self.tags.get(tag, digest) != digest)
        self.tags[tag] = digest
        self.blobs.add(digest)

    @rule(variant=VARIANTS, wrong_digest=st.booleans())
    def put_blob(self, variant, wrong_digest):
        _, xml, digest = _pool()[variant]
        if wrong_digest:
            other = _pool()[(variant + 1) % VARIANT_COUNT][2]
            with pytest.raises(ServiceProtocolError):
                self.store.put_blob(xml, expect_digest=other)
            return
        stored, created = self.store.put_blob(xml, expect_digest=digest)
        assert stored == digest
        assert created == (digest not in self.blobs)
        self.blobs.add(digest)

    @rule(tag=TAGS, kind=st.sampled_from(["tag", "digest"]), to_tag=TAGS,
          variant=VARIANTS)
    def retag(self, tag, kind, to_tag, variant):
        ref, expected = self._ref(kind, to_tag, variant)
        if expected is None:
            with pytest.raises(UnknownPlatformError):
                self.store.retag(tag, ref)
            return
        result = self.store.retag(tag, ref)
        assert result.digest == expected
        assert result.moved == (self.tags.get(tag, expected) != expected)
        self.tags[tag] = expected
        payload, _ = self.store.preselect(tag, CUDA_X86_PROGRAM)
        assert payload["digest"] == expected

    @rule(tag=TAGS)
    def delete_tag(self, tag):
        if tag not in self.tags:
            with pytest.raises(UnknownPlatformError):
                self.store.delete_tag(tag)
            return
        assert self.store.delete_tag(tag) == self.tags.pop(tag)

    @rule(kind=REF_KINDS, tag=TAGS, variant=VARIANTS)
    def fetch(self, kind, tag, variant):
        ref, expected = self._ref(kind, tag, variant)
        if expected is None:
            with pytest.raises(UnknownPlatformError):
                self.store.xml(ref)
            return
        assert _sha256(self.store.xml(ref)) == expected
        assert self.store.platform(ref).name == self.names[expected]

    @rule(kind=REF_KINDS, tag=TAGS, variant=VARIANTS)
    def preselect(self, kind, tag, variant):
        ref, expected = self._ref(kind, tag, variant)
        if expected is None:
            with pytest.raises(UnknownPlatformError):
                self.store.preselect(ref, CUDA_X86_PROGRAM)
            return
        payload, _ = self.store.preselect(ref, CUDA_X86_PROGRAM)
        assert payload["digest"] == expected
        assert payload["platform"] == self.names[expected]

    @invariant()
    def tags_match_model(self):
        assert self.store.tags() == self.tags
        assert self.store.digests() == sorted(self.blobs)

    @invariant()
    def live_refs_serve_their_digest(self):
        for ref in [*self.tags, *self.blobs]:
            assert _sha256(self.store.xml(ref)) == self.store.resolve(ref)


StoreConsistency.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestStoreConsistency = StoreConsistency.TestCase
