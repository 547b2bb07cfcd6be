# lint-path: src/repro/simulator/fixture_obs001.py
"""OBS001 fixture: bypassing the NULL_RECORDER recorder facade."""

from repro.obs import NULL_RECORDER, Recorder


def bad_wiring(events):
    recorder = Recorder()                          # expect[OBS001]
    if isinstance(recorder, Recorder):             # expect[OBS001]
        pass
    recorder.trace.record("tick", 0.0)             # expect[OBS001]
    count = len(recorder.registry)                 # expect[OBS001]
    return count


def good_wiring(events, recorder=NULL_RECORDER):
    recorder.event("tick", t=0.0)
    recorder.inc("events.seen")
    if recorder.enabled:
        recorder.observe("events.batch", len(events))
    with recorder.span("fixture.phase") as span:
        span.count("events", len(events))
