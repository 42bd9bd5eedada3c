"""A run killed at any file operation resumes to the uninterrupted run's files.

One kill point per site of a 2-episode desk run (see ``killpoints``), in
both modes; ``tests/killpoints.py`` sweeps every kill point of a 4-episode
run."""

import pytest

from killpoints import KillSweep


@pytest.mark.parametrize("mode", ["fresh", "retrain"])
def test_a_kill_at_each_file_operation_site_resumes_to_the_uninterrupted_run(tmp_path, mode):
    sweep = KillSweep(tmp_path, mode, episodes=2)
    points = sweep.tier1_points()
    sites = dict(enumerate(sweep.sites, start=1))
    swaps = [k for k, site in sites.items() if site.startswith("rename") and site.endswith("/snapshots")]
    assert swaps[0] + 1 in points  # just after the first snapshot is swapped in
    assert any(k > swaps[-1] and sites[k].startswith("unlink") and "/snapshots.old/" in sites[k]
               for k in points)  # inside the removal of the last snapshot's retired copy
    assert sweep.run(points) == {}
