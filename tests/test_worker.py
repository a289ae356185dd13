"""The forked task worker of `report.run_theorem` (`report._run_tasks`):
the same report bytes as the inline path, each task run once, errors
carried to the parent, and no process left behind."""

import os
import signal
import threading

import pytest

from wresidue import cli, pipeline, report
from wresidue.scalars import EngineError

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def deadline():
    """Fail a test that blocks for 60 s instead of hanging the run."""
    def on_alarm(_signum, _frame):
        raise RuntimeError("blocked for 60 s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _report_bytes(tmp_path, monkeypatch, fork, args):
    monkeypatch.setattr(report, "_fork_helps", lambda: fork)
    out = tmp_path / ("forked" if fork else "inline")
    assert cli.main(["run", *args, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("args", [
    ["--theorem", "T4.6", "--format", "json"],
    ["--theorem", "T5.4", "--format", "json"],
    ["--theorem", "all", "--format", "json"],
    ["--theorem", "T5.4", "--case", "b", "--format", "json"],
    ["--theorem", "T5.4", "--case", "a1", "--format", "json"],
    ["--theorem", "T5.4", "--no-torsion", "--format", "json"],
    ["--theorem", "T4.6", "--subst-omega3", "--format", "json"],
    ["--theorem", "T4.6", "--sigma3-variant", "xik", "--format", "latex"],
], ids=lambda args: "-".join(a.lstrip("-") for a in args))
def test_worker_and_inline_reports_are_byte_identical(tmp_path, monkeypatch, deadline, args):
    forked = _report_bytes(tmp_path, monkeypatch, True, args)
    inline = _report_bytes(tmp_path, monkeypatch, False, args)
    assert forked == inline
    assert _no_child_left()


def _fail_in_worker(monkeypatch, failure):
    """Make `compute_case_term` call `failure()` in a forked process only;
    this process keeps the real function."""
    parent = os.getpid()
    real = pipeline.compute_case_term

    def compute(ctx, case):
        if os.getpid() != parent:
            failure()
        return real(ctx, case)

    monkeypatch.setattr(pipeline, "compute_case_term", compute)
    monkeypatch.setattr(report, "_fork_helps", lambda: True)


def test_an_engine_error_in_the_worker_ends_the_cli_with_its_diagnostic(
        monkeypatch, capsys, deadline):
    """The worker's exception is raised in the parent, so the exit code and
    the one-line diagnostic are those of the same error raised inline: 2,
    as for every engine error that is not a usage error."""
    def failure():
        raise EngineError("inexact polynomial division in the worker")

    _fail_in_worker(monkeypatch, failure)
    assert cli.main(["run", "--theorem", "T5.4", "--format", "json", "--out", os.devnull]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: inexact polynomial division in the worker"]
    assert _no_child_left()


def test_a_worker_that_ends_without_its_result_raises(monkeypatch, deadline):
    _fail_in_worker(monkeypatch, lambda: os._exit(3))
    with pytest.raises(EngineError, match=r"ended without a result \(exit status 3\)"):
        report.run_theorem("T5.4", report.RunConfig(theorem="T5.4"))
    assert _no_child_left()


def test_a_failure_in_the_parent_reaps_the_worker(monkeypatch, deadline):
    def failing(theorem, cfg):
        raise EngineError("symbol diff failed")

    monkeypatch.setattr(report, "_fork_helps", lambda: True)
    monkeypatch.setattr(report, "_symbol_diff_rows", failing)
    with pytest.raises(EngineError, match="symbol diff failed"):
        report.run_theorem("T5.4", report.RunConfig(theorem="T5.4"))
    assert _no_child_left()

    # an interrupt of this process does not wait for the worker, which
    # would block for the whole deadline: it is killed and reaped
    def interrupt():
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        report._run_tasks([lambda: signal.pause(), interrupt])
    assert _no_child_left()


def test_a_result_larger_than_the_pipe_buffer_arrives_whole(monkeypatch, deadline):
    monkeypatch.setattr(report, "_fork_helps", lambda: True)
    big = "x" * (4 << 20)
    parent = os.getpid()
    assert report._run_tasks([lambda: (os.getpid() != parent, big), lambda: 1]) == [(True, big), 1]
    assert _no_child_left()


def test_an_exception_of_the_task_is_raised_in_the_parent(monkeypatch, deadline):
    parent = os.getpid()

    def task():
        raise ValueError(f"raised in {'the worker' if os.getpid() != parent else 'the parent'}")

    monkeypatch.setattr(report, "_fork_helps", lambda: True)
    with pytest.raises(ValueError, match="raised in the worker"):
        report._run_tasks([task, lambda: None])
    assert _no_child_left()


def _lane(parent):
    return "worker" if os.getpid() != parent else "parent"


@pytest.mark.parametrize("late", ["worker", "parent"])
def test_the_first_failing_task_in_list_order_gives_the_diagnostic(monkeypatch, deadline, late):
    """Two tasks fail, one in each process.  The one earlier in the list is
    raised, though it fails later in time, in either process.  The tasks
    order themselves through pipes, so which process runs which is fixed:
    task 0 runs in the worker, and a task that waits keeps its process from
    claiming another."""
    monkeypatch.setattr(report, "_fork_helps", lambda: True)
    parent = os.getpid()
    started, failed = os.pipe(), os.pipe()  # (read end, write end) each

    def fail(index):
        raise EngineError(f"task {index} failed in the {_lane(parent)}")

    def failing_late(index):
        def task():
            os.write(started[1], b"x")
            os.read(failed[0], 1)  # until the other task has failed
            fail(index)
        return task

    def failing_first(index):
        def task():
            try:
                fail(index)
            finally:
                os.write(failed[1], b"x")
        return task

    if late == "worker":
        # task 0 waits in the worker; task 1 is left to this process
        tasks = [failing_late(0), failing_first(1)]
    else:
        # task 0 holds the worker until this process has claimed task 1,
        # which waits; task 2 is left to the worker
        tasks = [lambda: os.read(started[0], 1), failing_late(1), failing_first(2)]
    try:
        with pytest.raises(EngineError) as raised:
            report._run_tasks(tasks)
    finally:
        for fd in started + failed:
            os.close(fd)
    assert str(raised.value) == {"worker": "task 0 failed in the worker",
                                 "parent": "task 1 failed in the parent"}[late]
    assert _no_child_left()


def test_each_task_runs_exactly_once_across_the_two_processes(monkeypatch, tmp_path, deadline):
    """Every task appends its index and process to one file; each index is
    there once, both processes ran some, and the results are in list order."""
    monkeypatch.setattr(report, "_fork_helps", lambda: True)
    log = tmp_path / "ran"
    parent = os.getpid()

    def task(index):
        with open(log, "a") as out:
            out.write(f"{index} {_lane(parent)}\n")
        sum(range(20_000 * (index % 3)))  # a little work, so that both claim
        return index * index

    tasks = [lambda i=i: task(i) for i in range(40)]
    assert report._run_tasks(tasks) == [i * i for i in range(40)]
    ran = [line.split() for line in log.read_text().splitlines()]
    assert sorted(int(index) for index, _ in ran) == list(range(40))
    assert {lane for _, lane in ran} == {"worker", "parent"}
    assert ["0", "worker"] in ran
    assert _no_child_left()


def test_a_single_cpu_a_second_thread_or_no_split_runs_the_task_inline(monkeypatch):
    def task():
        return os.getpid()

    monkeypatch.setattr(report, "_fork_helps", lambda: True)
    assert report._run_tasks([task]) == [os.getpid()]  # one task: nothing to split
    monkeypatch.undo()
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert not report._fork_helps()
        assert report._run_tasks([task, task]) == [os.getpid()] * 2
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
    monkeypatch.setattr(report.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert not report._fork_helps()
    assert report._run_tasks([task, task, task]) == [os.getpid()] * 3
