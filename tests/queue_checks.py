"""A policy wrapper that checks the scheduler's waiting queue mid-run."""


class QueueChecked:
    """Delegates every decision to ``policy``, first checking the
    waiting queue's invariants at each admission and preemption hook."""

    def __init__(self, policy):
        self.policy = policy
        self.name = policy.name
        self.checks = 0

    def _check(self, waiting):
        waiting.check_invariants()
        self.checks += 1

    def step_order(self, active, now):
        return self.policy.step_order(active, now)

    def admit_next(self, waiting, in_flight, now):
        self._check(waiting)
        return self.policy.admit_next(waiting, in_flight, now)

    def select_victim(self, active, now):
        return self.policy.select_victim(active, now)

    def preemptions(self, waiting, active, now, free_slots):
        self._check(waiting)
        return self.policy.preemptions(waiting, active, now, free_slots)
