"""Property tests: an experiment arm pickles to the same bytes however
its ``name`` string was built.

Arms ride inside every payload, and the parity suites compare payloads
as pickled bytes.  Attribute names are interned strings, so an arm
whose ``name`` equals one of its field names (``PriorityArm("dscp")``,
``FaultArm("adaptive", True)``) can hold either that very interned
object or an equal copy -- one that crossed a worker process, say.  If
an arm pickled its attribute dict, pickle's memo would share the two
equal strings only in the interned case and the bytes would differ.
Every arm class must pickle to identical bytes in both cases and load
back equal.
"""

import inspect
import pickle
import sys

from hypothesis import given, strategies as st

from repro.experiments.fault_exp import FaultArm
from repro.experiments.priority_exp import PriorityArm
from repro.experiments.reservation_cpu_exp import CpuArm
from repro.experiments.reservation_net_exp import NetworkArm
from repro.experiments.route_exp import RouteArm
from repro.pubsub.fig12 import PubSubArm
from repro.scale.capacity_exp import CapacityArm
from repro.scale.fig10 import ScaleArm

ARM_CLASSES = (PriorityArm, NetworkArm, CpuArm, FaultArm, RouteArm,
               CapacityArm, ScaleArm, PubSubArm)
PROTOCOLS = range(2, pickle.HIGHEST_PROTOCOL + 1)


def field_names(cls):
    return [name for name in inspect.signature(cls).parameters
            if name != "name"]


def field_values(cls):
    """Every non-name constructor argument: a bool, or a reservation."""
    return st.fixed_dictionaries({
        name: (st.sampled_from([None, "partial", "full"])
               if name == "reservation" and cls is NetworkArm
               else st.booleans())
        for name in field_names(cls)
    })


@st.composite
def arm_cases(draw):
    cls = draw(st.sampled_from(ARM_CLASSES))
    name = draw(st.sampled_from(field_names(cls)))
    return cls, name, draw(field_values(cls))


@given(arm_cases())
def test_name_interning_never_changes_arm_bytes(case):
    cls, name, values = case
    interned = sys.intern(name)
    copy = "".join(list(name))
    assert copy == interned and copy is not interned
    shared = cls(interned, **values)
    fresh = cls(copy, **values)
    for protocol in PROTOCOLS:
        data = pickle.dumps(shared, protocol=protocol)
        assert data == pickle.dumps(fresh, protocol=protocol), (
            f"{cls.__name__}({name!r}) pickles differently when its "
            f"name is the interned field-name string")
        assert pickle.loads(data) == shared


def test_every_arm_class_has_a_field_name_to_collide_with():
    for cls in ARM_CLASSES:
        assert field_names(cls), cls
