import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detection_reference import reference_judge_forwarding
from manetsim import packets, trust
from manetsim.config import SimConfig
from manetsim.detection import (ACKED, INCONCLUSIVE, LINK_BROKEN, LINK_OK,
                                MALICIOUS, NORMAL, PENDING, SELFISH, TIMEOUT,
                                SurveillanceLedger, handle_route_advert,
                                handle_trust_report, judge_forwarding, punish,
                                verify_identity)
from manetsim.errors import NoEvidence, UnknownLink

TH = SimConfig()


def ledger_with(gateway, outcomes):
    """outcomes: list of (status, context, res_eng, rel_mobility)."""
    led = SurveillanceLedger(ch_id=0)
    for pid, (status, ctx, res, mob) in enumerate(outcomes):
        led.open_entry(pid, gateway, res_eng=res, rel_mobility=mob)
        if status != PENDING:
            led.resolve(pid, status, ctx)
    return led


# ---- ledger mechanics ----

def test_entries_open_pending():
    led = SurveillanceLedger(ch_id=0)
    e = led.open_entry(5, gateway=27, res_eng=0.9, rel_mobility=0.0)
    assert e.ack_status == PENDING
    assert led.by_packet[5] is e


def test_resolve_is_first_writer_wins():
    led = SurveillanceLedger(ch_id=0)
    led.open_entry(5, 27, res_eng=0.9, rel_mobility=0.0)
    assert led.resolve(5, ACKED).ack_status == ACKED
    assert led.resolve(5, TIMEOUT) is None
    assert led.by_packet[5].ack_status == ACKED


def test_resolve_unknown_packet_is_none():
    assert SurveillanceLedger(ch_id=0).resolve(99, ACKED) is None


def test_resolved_index_excludes_pending():
    led = ledger_with(27, [(ACKED, LINK_OK, 0.9, 0.0), (PENDING, LINK_OK, 0.9, 0.0),
                           (TIMEOUT, LINK_OK, 0.9, 0.0)])
    assert led.resolved[27] == 2
    assert [e.packet_id for e in led.timeouts[27]] == [2]


# ---- forwarding judgment ----

CULPABLE = (TIMEOUT, LINK_OK, 0.9, 0.0)


def test_three_culpable_timeouts_convict():
    led = ledger_with(28, [CULPABLE] * 3)
    v = judge_forwarding(led, 28, TH)
    assert v.label == MALICIOUS
    assert v.evidence == (0, 1, 2)
    assert v.reason == "culpable_drops"


def test_two_culpable_timeouts_stay_inconclusive():
    assert judge_forwarding(ledger_with(28, [CULPABLE] * 2), 28, TH).label == INCONCLUSIVE


def test_broken_link_exonerates():
    led = ledger_with(28, [(TIMEOUT, LINK_BROKEN, 0.9, 0.0)] * 5)
    assert judge_forwarding(led, 28, TH).label == INCONCLUSIVE


def test_drained_battery_exonerates():
    led = ledger_with(28, [(TIMEOUT, LINK_OK, 0.05, 0.0)] * 5)
    assert judge_forwarding(led, 28, TH).label == INCONCLUSIVE


def test_high_speed_exonerates():
    led = ledger_with(28, [(TIMEOUT, LINK_OK, 0.9, 12.0)] * 5)
    assert judge_forwarding(led, 28, TH).label == INCONCLUSIVE


def test_unknown_mobility_exonerates():
    led = ledger_with(28, [(TIMEOUT, LINK_OK, 0.9, None)] * 5)
    assert judge_forwarding(led, 28, TH).label == INCONCLUSIVE


def test_selfish_battery_band_recurring():
    led = ledger_with(28, [(TIMEOUT, LINK_OK, 0.45, 0.0)] * 3)
    v = judge_forwarding(led, 28, TH)
    assert v.label == SELFISH
    assert v.reason == "recurring_refusal"


def test_selfish_band_below_three_is_inconclusive():
    led = ledger_with(28, [(TIMEOUT, LINK_OK, 0.45, 0.0)] * 2)
    assert judge_forwarding(led, 28, TH).label == INCONCLUSIVE


def test_clean_record_is_normal():
    led = ledger_with(28, [(ACKED, LINK_OK, 0.9, 0.0)] * 4)
    assert judge_forwarding(led, 28, TH).label == NORMAL


def test_no_evidence_raises():
    led = ledger_with(28, [(PENDING, LINK_OK, 0.9, 0.0)])
    with pytest.raises(NoEvidence):
        judge_forwarding(led, 28, TH)


def test_conviction_counts_per_gateway():
    led = ledger_with(28, [CULPABLE] * 3)
    led.open_entry(50, 29, res_eng=0.9, rel_mobility=0.0)
    led.resolve(50, TIMEOUT)
    assert judge_forwarding(led, 29, TH).label == INCONCLUSIVE
    assert judge_forwarding(led, 28, TH).label == MALICIOUS


# ---- indexed judgment against the full scan (detection_reference.py) ----

GATEWAYS = (3, 4)
# values on and around the drawn battery and speed thresholds, weighted
# towards culpable timeouts so that verdicts carry several packets
RES_ENG = (0.05, 0.4, 0.45, 0.5, 0.9, 0.9)
MOBILITY = (None, -5.0, 0.0, 0.0, 5.0, 12.0)
RESOLUTIONS = (None, (TIMEOUT, None), (TIMEOUT, None), (TIMEOUT, LINK_BROKEN),
               (ACKED, None), (ACKED, LINK_BROKEN))

thresholds = st.builds(SimConfig,
                       accusation_threshold=st.integers(1, 3),
                       energy_high_threshold=st.sampled_from((0.45, 0.5, 0.7)),
                       velocity_low_threshold=st.sampled_from((0.0, 5.0)))
custody = st.tuples(st.sampled_from(GATEWAYS), st.sampled_from(RES_ENG),
                    st.sampled_from(MOBILITY))


@st.composite
def ledger_histories(draw):
    """Per entry: its custody at open; a custody move, a broken link or
    nothing while pending; and its resolution, or none.  `order` lists each
    entry index three times and is shuffled: an entry's first appearance
    opens it, the second applies the pending change and the third resolves
    it, so opens, moves and resolves of different entries interleave and
    timeouts resolve out of open order."""
    n = draw(st.integers(1, 16))
    plans = draw(st.lists(st.tuples(
        custody,
        st.one_of(st.sampled_from((None, None, "break")), custody),
        st.sampled_from(RESOLUTIONS)),
        min_size=n, max_size=n))
    order = draw(st.permutations([i for i in range(n) for _ in range(3)]))
    return plans, order


def outcome(judge, *args):
    try:
        return judge(*args)
    except NoEvidence:
        return "no evidence"


@settings(max_examples=200, deadline=None)
@given(ledger_histories(), thresholds, thresholds)
def test_indexed_judgment_matches_full_scan(history, th, final_th):
    """Every judgment, evidence order and NoEvidence included, equals the
    scan over all entries in open order: after each resolve, as the engine
    judges, and at the end for every gateway and one never seen."""
    plans, order = history
    led = SurveillanceLedger(ch_id=0)
    entries = {}           # plan index -> entry, in open order
    moved = set()          # plan indices whose pending change was applied
    for i in order:
        (gw, res, mob), pending_change, resolution = plans[i]
        e = entries.get(i)
        if e is None:
            # packet ids fall as entries open, so sorting by id is not open order
            entries[i] = led.open_entry(1000 - len(entries), gw,
                                        res_eng=res, rel_mobility=mob)
        elif e.ack_status == PENDING and i not in moved:
            # what `World._hop` does to a pending entry, once
            moved.add(i)
            if pending_change == "break":
                e.context = LINK_BROKEN
            elif pending_change is not None:
                e.gateway, e.res_eng, e.rel_mobility = pending_change
        elif resolution is not None and led.resolve(e.packet_id, *resolution):
            assert (outcome(judge_forwarding, led, e.gateway, th)
                    == outcome(reference_judge_forwarding, list(entries.values()),
                               e.gateway, th))
    for gw in GATEWAYS + (9,):
        assert (outcome(judge_forwarding, led, gw, final_th)
                == outcome(reference_judge_forwarding, list(entries.values()),
                           gw, final_th))


# ---- identity checks ----

def test_spoofed_claim_pins_the_link_owner():
    v = verify_identity({4, 9}, link_id=9, claimed_id=4)
    assert v.label == MALICIOUS
    assert v.target == 9
    assert v.evidence == (4,)


def test_honest_claim_is_normal():
    assert verify_identity({4, 9}, link_id=9, claimed_id=9).label == NORMAL


def test_unregistered_link_raises():
    with pytest.raises(UnknownLink):
        verify_identity({4}, link_id=9, claimed_id=9)


# ---- trust reports ----

def report(src, accused):
    return packets.Packet(packets.TRUST_REPORT, src, 0, size=32,
                          payload={"accused": accused})


def test_reports_discarded_until_limit():
    counts = {}
    results = [handle_trust_report(counts, report(8, 27), nuisance_limit=5)
               for _ in range(8)]
    assert results[:5] == ["discarded"] * 5
    assert results[5] == "reporter_selfish"
    assert results[6:] == ["discarded"] * 2


def test_nuisance_counted_per_reporter_target_pair():
    counts = {}
    for _ in range(5):
        handle_trust_report(counts, report(8, 27), nuisance_limit=5)
    assert handle_trust_report(counts, report(8, 1), nuisance_limit=5) == "discarded"
    assert handle_trust_report(counts, report(3, 27), nuisance_limit=5) == "discarded"
    assert handle_trust_report(counts, report(8, 27), nuisance_limit=5) == "reporter_selfish"


def test_member_route_adverts_are_ignored():
    assert handle_route_advert(from_member=True) is False
    assert handle_route_advert(from_member=False) is True


# ---- punishment ----

class StubWorld:
    def __init__(self):
        self.trust_registry = {28: trust.init_trust(28)}
        self.blacklisted = set()
        self.changes = []
        self.ejected = []
        self.floods = []

    def note_trust_change(self, node, before, after, reason):
        self.changes.append((node, before, after, reason))

    def eject_node(self, node):
        self.ejected.append(node)

    def flood_blacklist(self, node, issuer, reason):
        self.floods.append((node, issuer, reason))


def test_punish_zeroes_trust_and_floods():
    from manetsim.detection import Verdict
    w = StubWorld()
    assert punish(w, Verdict(MALICIOUS, 28, (1, 2, 3), "culpable_drops"), issuing_ch=0)
    assert trust.trust_value(w.trust_registry[28]) == 0.0
    assert w.changes == [(28, 0.5, 0.0, "culpable_drops")]
    assert w.ejected == [28]
    assert w.floods == [(28, 0, "culpable_drops")]
    assert 28 in w.blacklisted


def test_punish_is_idempotent():
    from manetsim.detection import Verdict
    w = StubWorld()
    v = Verdict(MALICIOUS, 28, (), "culpable_drops")
    assert punish(w, v, 0) is True
    assert punish(w, v, 0) is False
    assert len(w.floods) == 1


def test_punish_ignores_non_malicious_verdicts():
    from manetsim.detection import Verdict
    w = StubWorld()
    assert punish(w, Verdict(SELFISH, 28, (), "recurring_refusal"), 0) is False
    assert w.blacklisted == set()
