"""Read a controller's progress log back in tests."""

from repro.runtime import BudgetSpent, ProgressLog


def read_log(path):
    """``(records, spent, complete)`` of the log at ``path``: every
    ``[key, record]`` pair in fold order (JSON-encoded, as the codec
    wrote it), and the meter and completion flag of its last line."""
    _, lines = ProgressLog.replay(path, {})
    records = [pair for line in lines for pair in line["records"]]
    if not lines:
        return records, BudgetSpent(), False
    last = lines[-1]
    return records, BudgetSpent.from_dict(last["spent"]), last["complete"]
