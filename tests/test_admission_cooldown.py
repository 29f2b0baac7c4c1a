"""Admission-cooldown tests: preemption must not ping-pong with admission.

After a step that preempted, the engine holds the waiting queue back for
``LLMEngine._PREEMPTION_COOLDOWN_STEPS`` steps (while anything is still
running) so freed memory first drains the preempted victims instead of
being handed straight to fresh admissions, which would re-preempt the
victims and endlessly re-prefill long prompts.  The engine's observer
makes this scheduling contract checkable from the outside: the cooldown
window is fully determined by the ``StepCompleted`` preemption tallies, so
the reported ``RequestAdmitted`` records must all fall outside it.
"""

from repro.engine import LLMEngine, Request, SchedulerConfig
from repro.models import GIB, get_model
from repro.platforms import H100
from repro.workloads import token_block

from .recording import (
    RecordingObserver,
    RequestAdmitted,
    RequestPreempted,
    StepCompleted,
)

COOLDOWN = LLMEngine._PREEMPTION_COOLDOWN_STEPS


def pressured_engine(observer=None):
    """~2 requests' worth of KV for 16 requests: heavy preemption."""
    from repro.baselines import make_manager

    model = get_model("llama3-8b")
    manager = make_manager("jenga", model, 96 * 1024 * 1024)
    engine = LLMEngine(model, H100, manager, config=SchedulerConfig(), observer=observer)
    engine.add_requests([
        Request.text(f"r{i}", token_block(0, "r", i, 300), 32)
        for i in range(16)
    ])
    return engine


class TestAdmissionCooldown:
    def test_cooldown_counter_arms_and_decays(self):
        engine = pressured_engine()
        preempting = None
        while True:
            record = engine.step()
            assert record is not None, "ran out of work before any preemption"
            if record.num_preemptions > 0:
                preempting = record
                break
        assert engine._admission_cooldown == COOLDOWN
        # A preemption-free step decays the counter by one.
        record = engine.step()
        if record is not None and record.num_preemptions == 0:
            assert engine._admission_cooldown == COOLDOWN - 1
        assert preempting.num_preemptions > 0

    def test_no_admission_inside_cooldown_window(self):
        recorder = RecordingObserver()
        engine = pressured_engine(recorder)
        metrics = engine.run(max_steps=20_000)
        assert len(metrics.requests) == 16  # everyone eventually finishes
        watched = (RequestAdmitted, RequestPreempted, StepCompleted)
        trace = [ev for ev in recorder.records if isinstance(ev, watched)]

        preempted = [ev for ev in trace if isinstance(ev, RequestPreempted)]
        assert preempted, "scenario must actually preempt"

        # Replay the engine's cooldown automaton from StepCompleted events
        # and check every admission happened while it was disarmed (or the
        # running set was empty, when holding back would deadlock).
        cooldown = 0
        prev_running = 0
        violations = []
        admitted_after_preemption = 0
        saw_preemption = False
        for event in trace:
            if isinstance(event, RequestAdmitted):
                if cooldown > 0 and prev_running > 0:
                    violations.append(event)
                if saw_preemption:
                    admitted_after_preemption += 1
            elif isinstance(event, StepCompleted):
                if event.num_preemptions > 0:
                    cooldown = COOLDOWN
                    saw_preemption = True
                elif cooldown:
                    cooldown -= 1
                prev_running = event.record.num_running
        assert not violations, f"admissions during cooldown: {violations}"
        # The cooldown delays admission, it must not starve it.
        assert admitted_after_preemption > 0

    def test_preemption_events_round_trip_requeue(self):
        """Each preemption re-queues its victim: the victim's admissions
        outnumber its preemptions by exactly one."""
        recorder = RecordingObserver()
        engine = pressured_engine(recorder)
        metrics = engine.run(max_steps=20_000)
        admissions = {}
        preemptions = {}
        for event in recorder.recent(RequestAdmitted):
            admissions[event.request_id] = admissions.get(event.request_id, 0) + 1
        for event in recorder.recent(RequestPreempted):
            preemptions[event.request_id] = preemptions.get(event.request_id, 0) + 1
        assert len(metrics.requests) == 16
        assert metrics.preemptions == sum(preemptions.values()) > 0
        for request_id, count in preemptions.items():
            assert admissions[request_id] == count + 1
