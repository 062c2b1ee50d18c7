"""`run_all` runs the check groups in lanes: this process and one forked child per other
usable CPU.  Its bytes, its errors and its exit codes must not depend on the lane count
or on which lane ran which group, and no child may outlive it."""

import os
import select

import pytest

from qcft import checks
from qcft.cli import main
from qcft.config import RunConfig
from qcft.errors import ConfigParse, QcftError
from qcft.reports import reports_to_bytes


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of usable CPUs that run_all sees."""
    return lambda n: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def lane_stubs(monkeypatch, cpus):
    """Replace the groups by stubs that do `act` in the lane named ("parent" or "child")
    and return no reports in the other.  A stub in the other lane first waits until the
    named lane has run a stub, so the named lane always runs at least one group."""
    cpus(2)
    parent = os.getpid()
    ran, ran_w = os.pipe()

    def install(named, act):
        def stub(cfg):
            if (os.getpid() == parent) == (named == "parent"):
                os.write(ran_w, b".")
                act()
            select.select([ran], [], [], 10)
            return []
        monkeypatch.setattr(checks, "GROUPS", {name: stub for name in checks.GROUPS})

    yield install
    os.close(ran)
    os.close(ran_w)


@pytest.mark.parametrize("exact_only", [False, True])
@pytest.mark.parametrize("lanes", [1, 2])
def test_lanes_join_the_serial_bytes(cpus, lanes, exact_only):
    cfg = RunConfig(exact_only=exact_only)
    serial = [r for name in checks.GROUPS for r in checks.GROUPS[name](cfg)]
    cpus(lanes)
    assert reports_to_bytes(checks.run_all(cfg)) == reports_to_bytes(serial)
    assert_no_child_left()


def raise_(error):
    def act():
        raise error
    return act


@pytest.mark.parametrize("named", ["parent", "child"])
@pytest.mark.parametrize("error, code", [(QcftError("stub"), 1), (ValueError("stub"), 2)])
def test_a_group_error_keeps_its_exit_code_in_any_lane(lane_stubs, capsys, named, error, code):
    lane_stubs(named, raise_(error))
    assert main(["all"]) == code
    out, err = capsys.readouterr()
    assert out == "" and "stub" in err
    assert_no_child_left()


@pytest.mark.parametrize("named", ["parent", "child"])
def test_an_error_pickle_cannot_carry_comes_back_naming_its_group(lane_stubs, named):
    lane_stubs(named, raise_(ConfigParse("bad line", 3)))   # unpickles as ConfigParse(message)
    with pytest.raises(QcftError) as caught:
        checks.run_all(RunConfig())
    assert type(caught.value) is QcftError
    named_group = str(caught.value).split()[1]
    assert named_group in checks.GROUPS
    assert str(caught.value) == f"group {named_group} raised ConfigParse: line 3: bad line"
    assert_no_child_left()


def test_a_lane_that_dies_names_the_groups_it_lost(lane_stubs):
    lane_stubs("child", lambda: os._exit(3))
    with pytest.raises(QcftError, match="a lane died without the results of ") as caught:
        checks.run_all(RunConfig())
    lost = str(caught.value).rsplit(" of ", 1)[1].split(", ")
    assert lost and set(lost) <= set(checks.GROUPS)
    assert_no_child_left()


def test_one_usable_cpu_forks_nothing(cpus, monkeypatch):
    def refuse():
        raise AssertionError("os.fork called with one usable CPU")

    cpus(1)
    monkeypatch.setattr(os, "fork", refuse)
    cfg = RunConfig()
    serial = [r for name in checks.GROUPS for r in checks.GROUPS[name](cfg)]
    assert reports_to_bytes(checks.run_all(cfg)) == reports_to_bytes(serial)
