"""One event grammar for the trust-state properties.

:func:`events` is a hypothesis strategy over every façade mutator the
property harness drives — votes, retentions, plays, fake deletions, the
"rerecord" that dirties a file without moving its Eq. 1 value, downloads,
ranks, friendships, blacklistings, prunes and real uploads — plus
``refresh``.  :func:`apply` feeds one event to a system.  The state machine
in ``trust_machine.py`` sends every event to several systems at once;
``damage.py`` journals the same events into a WAL for the damage
properties.
"""

from hypothesis import strategies as st

#: ``(users, files)``: the small population reaches interesting states in
#: few events; the large one, filled by a long run of
#: :func:`matrix_events`, is dense enough for iterated products and
#: repeated squaring to round differently.
SMALL = ([f"u{index}" for index in range(4)],
         [f"f{index}" for index in range(6)])
LARGE = ([f"u{index:02d}" for index in range(16)],
         [f"f{index:02d}" for index in range(10)])

REFRESH = ("refresh",)


def matrix_events(users, files):
    """One event that feeds TM: a vote, a download or a rank."""
    user = st.sampled_from(users)
    file = st.sampled_from(files)
    unit = st.floats(min_value=0.0, max_value=1.0)
    return st.one_of(
        st.tuples(st.just("vote"), user, file, unit),
        st.tuples(st.just("download"), user, user, file,
                  st.floats(min_value=1.0, max_value=1e7)),
        st.tuples(st.just("rank"), user, user, unit),
    )


def events(users, files):
    """One façade event over the given population."""
    user = st.sampled_from(users)
    file = st.sampled_from(files)
    return st.one_of(
        matrix_events(users, files),
        st.tuples(st.just("retention"), user, file,
                  st.floats(min_value=0.0, max_value=1e5)),
        st.tuples(st.just("play"), user, file,
                  st.floats(min_value=0.0, max_value=1.0)),
        st.tuples(st.just("fake_deletion"), user, file),
        st.tuples(st.just("rerecord"), user, file),
        st.tuples(st.just("friend"), user, user),
        st.tuples(st.just("blacklist"), user, user),
        st.tuples(st.just("prune"), st.integers(min_value=0, max_value=60)),
        st.tuples(st.just("upload"), user),
        st.just(REFRESH),
    )


def apply(system, event, clock: float) -> None:
    """Feed ``event`` to ``system`` at time ``clock``.

    Pair events between a user and itself are no-ops, so every drawn
    event is valid for the façade.
    """
    kind, *args = event
    if kind in ("download", "rank", "friend", "blacklist") \
            and args[0] == args[1]:
        return
    if kind == "vote":
        system.record_vote(*args, timestamp=clock)
    elif kind == "retention":
        system.record_retention(*args, timestamp=clock)
    elif kind == "play":
        system.record_play(*args, timestamp=clock)
    elif kind == "fake_deletion":
        system.record_fake_deletion(*args, timestamp=clock)
    elif kind == "rerecord":
        # A repeated vote keeps the vote, and a play no higher than the
        # stored fraction (or 0.0 <= implicit) leaves the implicit channel
        # as it was.
        evaluation = system.evaluations.get(*args)
        if evaluation is None:
            return
        if evaluation.explicit is not None:
            system.record_vote(*args, evaluation.explicit, timestamp=clock)
        else:
            system.record_play(*args, evaluation.play_fraction or 0.0,
                               timestamp=clock)
    elif kind == "download":
        system.record_download(*args, timestamp=clock)
    elif kind == "rank":
        system.record_rank(*args)
    elif kind == "friend":
        system.add_friend(*args)
    elif kind == "blacklist":
        system.add_to_blacklist(*args)
    elif kind == "prune":
        system.prune_before(clock - args[0])
    elif kind == "upload":
        system.record_real_upload(*args)
    else:
        system.recompute()
        system.refresh_view()
