"""Per-rule fixture tests: each rule fires on a bad snippet, stays silent
on the corresponding good one (the shape the real code uses)."""

import ast
from pathlib import Path

import repro.nn.plan
from repro.analysis.rules.bans import PickleBanRule
from repro.analysis.rules.exceptions import ExceptHygieneRule
from repro.analysis.rules.grad_mode import GradModeRule
from repro.analysis.rules.lock_discipline import LockDisciplineRule
from repro.analysis.rules.replay_alloc import ReplayAllocRule
from repro.analysis.rules.timing import TimingDisciplineRule


def rule_ids(findings, rule=None):
    return [f.rule for f in findings if rule is None or f.rule == rule]


class TestLockDiscipline:
    BAD = """
        from repro.runtime.annotations import guarded_by

        @guarded_by("_pending", "stats", lock="_lock")
        class Service:
            def __init__(self):
                self._pending = []      # __init__ is exempt
                self.stats = 0

            def submit(self, request):
                self._pending.append(request)   # no lock: flagged
                self.stats += 1                 # no lock: flagged (read+write)
    """

    GOOD = """
        from repro.runtime.annotations import guarded_by, requires_lock, unguarded

        @guarded_by("_pending", "stats", lock="_lock")
        @guarded_by("_shards", lock="_topology")
        class Service:
            def __init__(self):
                self._pending = []
                self.stats = 0
                self._shards = {}

            def submit(self, request):
                with self._lock:
                    self._pending.append(request)
                    self.stats += 1

            def fan_out(self):
                with self._topology.read():
                    keys = list(self._shards)

                    def run(shard_id):            # closure under the lock
                        return self._shards[shard_id]

                    return [run(k) for k in keys]

            def rebalance(self):
                with self._topology.write():
                    self._shards = {}

            @requires_lock("_lock")
            def _flush_locked(self):
                self._pending.clear()

            @unguarded("single-threaded codec")
            def to_state(self):
                return list(self._pending)
    """

    def test_fires_on_unlocked_access(self, lint):
        findings = rule_ids(lint(self.BAD, rules=[LockDisciplineRule]))
        # _pending read + stats read/write sites
        assert findings and set(findings) == {"lock-discipline"}
        assert len(findings) >= 2

    def test_silent_on_disciplined_class(self, lint):
        assert lint(self.GOOD, rules=[LockDisciplineRule]) == []

    def test_messages_name_attribute_and_lock(self, lint):
        findings = lint(self.BAD, rules=[LockDisciplineRule])
        assert any(
            "self._pending" in f.message and "self._lock" in f.message
            for f in findings
        )
        assert all(f.symbol == "Service.submit" for f in findings)

    def test_with_item_expression_checked_against_outer_context(self, lint):
        # The lock expression itself evaluates before the lock is held:
        # indexing a guarded dict to *find* the lock is still unguarded.
        source = """
            from repro.runtime.annotations import guarded_by

            @guarded_by("_locks", lock="_topology")
            class C:
                def use(self, key):
                    with self._locks[key]:
                        pass
        """
        findings = lint(source, rules=[LockDisciplineRule])
        assert rule_ids(findings) == ["lock-discipline"]


class TestReplayAlloc:
    BAD_KERNEL = """
        import numpy as np

        def blur_kernel(x, out=None):
            mx = np.amax(x, axis=-1, keepdims=True)     # no out=: flagged
            tmp = x.copy()                              # flagged
            stacked = np.stack([x, x])                  # flagged
            return np.subtract(x, mx, out=out)
    """

    GOOD_KERNEL = """
        import numpy as np

        def blur_kernel(x, out=None, reduce_buf=None):
            mx = np.amax(x, axis=-1, keepdims=True, out=reduce_buf)
            shifted = np.subtract(x, mx, out=out)
            np.exp(shifted, out=shifted)
            return shifted

        def helper(x):
            return np.stack([x, x])   # not a kernel scope: fine
    """

    BAD_TRACE_SITE = """
        import numpy as np

        def op(a, out_data, rec):
            rec.add(lambda a=a, o=out_data: np.copyto(o, np.exp(a)), out_data)
    """

    GOOD_TRACE_SITE = """
        import numpy as np

        def op(a, out_data, rec):
            rec.add(lambda a=a, o=out_data: np.exp(a, out=o), out_data)

        def op2(a, out_data, rec):
            def run(a=a, o=out_data):
                np.copyto(o, np.broadcast_to(a, o.shape))  # view: exempt
            rec.add(run, out_data)
    """

    def test_fires_inside_kernel_functions(self, lint):
        findings = lint(self.BAD_KERNEL, rules=[ReplayAllocRule])
        assert len(findings) == 3
        assert all(f.symbol == "blur_kernel" for f in findings)

    def test_silent_on_out_parameterised_kernel(self, lint):
        assert lint(self.GOOD_KERNEL, rules=[ReplayAllocRule]) == []

    def test_fires_inside_recorded_lambda(self, lint):
        findings = lint(self.BAD_TRACE_SITE, rules=[ReplayAllocRule])
        assert rule_ids(findings) == ["replay-alloc"]
        assert findings[0].symbol == "op.<replay>"

    def test_silent_on_clean_trace_sites(self, lint):
        assert lint(self.GOOD_TRACE_SITE, rules=[ReplayAllocRule]) == []

    def test_pow_and_matmul_operators_flagged(self, lint):
        source = """
            def op(a, b, o, rec):
                rec.add(lambda a=a, b=b, o=o: (a ** 2, a @ b), o)
        """
        messages = [f.message for f in lint(source, rules=[ReplayAllocRule])]
        assert any("'**'" in m for m in messages)
        assert any("'@'" in m for m in messages)

    # The polymorphic replay dispatch (_replay*/_run_*/bind in nn/plan.py)
    # is a kernel scope too: it runs on every serve.
    BAD_REPLAY_PATH = """
        import numpy as np

        class Plan:
            def _run_sliced(self, x, copy):
                np.copyto(self._x_buf[: x.shape[0]], x)
                out = np.concatenate([self._out, x])     # allocates: flagged
                padded = self._x_buf.copy()              # unconditional: flagged
                return out
    """

    GOOD_REPLAY_PATH = """
        import numpy as np

        class Plan:
            def _run_sliced(self, x, copy):
                np.copyto(self._x_slot.bind(x.shape[0]), x)
                for kernel, arrays in self._bound:
                    kernel(*arrays)
                out = self._out_slot.bind(x.shape[0])
                return out.copy() if copy else out       # copy-out: exempt

            def _bind(self, batch):
                return tuple(slot.bind(batch) for slot in self._slots)

        class _Slot:
            def bind(self, batch):
                return self.array[: batch * self.rows]   # leading-dim view
    """

    def test_replay_paths_scanned_in_plan_module(self, lint):
        findings = lint(
            self.BAD_REPLAY_PATH, path="repro/nn/plan.py", rules=[ReplayAllocRule]
        )
        assert len(findings) == 2
        assert all(f.symbol == "Plan._run_sliced" for f in findings)

    def test_slice_replay_idiom_and_copy_out_exempt(self, lint):
        assert (
            lint(self.GOOD_REPLAY_PATH, path="repro/nn/plan.py", rules=[ReplayAllocRule])
            == []
        )

    def test_replay_path_names_only_special_in_plan_module(self, lint):
        assert lint(self.BAD_REPLAY_PATH, rules=[ReplayAllocRule]) == []

    def test_real_plan_kernel_dispatch_is_linted(self, lint):
        """Every function of the real ``nn/plan.py`` that runs the
        ``kernel(*arrays)`` loop must be a replay-alloc scope: an
        allocation planted in it is flagged.  A rename that drops the
        dispatch out of the scope naming fails here, not silently."""
        tree = ast.parse(Path(repro.nn.plan.__file__).read_text(encoding="utf-8"))
        dispatchers = _kernel_dispatchers(tree)
        assert dispatchers, "no kernel(*arrays) loop found in nn/plan.py"
        for qual, function in dispatchers:
            function.body.insert(0, ast.parse("np.stack(())").body[0])
            findings = lint(ast.unparse(tree), path="repro/nn/plan.py", rules=[ReplayAllocRule])
            del function.body[0]
            assert any(
                f.symbol == qual and "np.stack" in f.message for f in findings
            ), f"{qual} runs the replay kernels but is not a replay-alloc scope"


def _kernel_dispatchers(tree):
    """``(qualname, def)`` of functions whose own body calls ``kernel(*arrays)``."""
    found = []

    def calls_kernel(function):
        stack = list(function.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "kernel"
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Starred)
            ):
                return True
            stack.extend(ast.iter_child_nodes(node))
        return False

    def visit(node, qual):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                child_qual = f"{qual}.{child.name}" if qual else child.name
                if not isinstance(child, ast.ClassDef) and calls_kernel(child):
                    found.append((child_qual, child))
                visit(child, child_qual)
            else:
                visit(child, qual)

    visit(tree, "")
    return found


class TestGradMode:
    def test_no_grad_outside_with_flagged(self, lint):
        source = """
            from repro.nn.tensor import no_grad

            def trace(model, x):
                guard = no_grad()        # stashed: flagged
                return model.forward(x)
        """
        findings = lint(source, rules=[GradModeRule])
        assert rule_ids(findings) == ["grad-mode"]

    def test_no_grad_as_context_manager_silent(self, lint):
        source = """
            from repro.nn.tensor import no_grad

            def trace(model, x):
                with no_grad():
                    return model.forward(x)
        """
        assert lint(source, rules=[GradModeRule]) == []

    def test_grad_mode_flag_write_flagged_outside_tensor(self, lint):
        source = """
            from repro.nn.tensor import _grad_mode

            def hack():
                _grad_mode.enabled = False
        """
        findings = lint(source, path="repro/nn/other.py", rules=[GradModeRule])
        assert rule_ids(findings) == ["grad-mode"]
        # ...but nn/tensor.py itself implements no_grad and is exempt.
        assert lint(source, path="repro/nn/tensor.py", rules=[GradModeRule]) == []

    def test_autograd_surface_in_replay_scope_flagged(self, lint):
        source = """
            def op(t, o, rec):
                rec.add(lambda t=t, o=o: t.backward(), o)
        """
        findings = lint(source, rules=[GradModeRule])
        assert rule_ids(findings) == ["grad-mode"]


class TestPickleBan:
    def test_pickle_import_flagged_in_cluster(self, lint):
        source = """
            import pickle

            def save(obj, path):
                with open(path, "wb") as handle:
                    pickle.dump(obj, handle)
        """
        findings = lint(source, path="repro/cluster/bad.py", rules=[PickleBanRule])
        assert rule_ids(findings) == ["pickle-ban"]

    def test_pickle_fine_outside_banned_packages(self, lint):
        source = "import pickle\n"
        assert lint(source, path="repro/viz/helper.py", rules=[PickleBanRule]) == []

    def test_allow_pickle_kwarg_flagged(self, lint):
        source = """
            import numpy as np

            def load(path):
                return np.load(path, allow_pickle=True)
        """
        findings = lint(source, path="repro/streaming/bad.py", rules=[PickleBanRule])
        assert rule_ids(findings) == ["pickle-ban"]

    def test_adhoc_hashing_flagged_but_ring_exempt(self, lint):
        source = """
            import hashlib

            def assign(tenant):
                return hashlib.md5(tenant.encode()).hexdigest()
        """
        findings = lint(source, path="repro/cluster/router.py", rules=[PickleBanRule])
        assert rule_ids(findings) == ["pickle-ban"]
        assert lint(source, path="repro/cluster/ring.py", rules=[PickleBanRule]) == []

    def test_builtin_hash_flagged(self, lint):
        source = """
            def bucket(tenant, n):
                return hash(tenant) % n
        """
        findings = lint(source, path="repro/cluster/router.py", rules=[PickleBanRule])
        assert rule_ids(findings) == ["pickle-ban"]

    def test_wire_transport_in_scope(self, lint):
        # The process-boundary transport is exactly where pickle would be
        # the path of least resistance — the ban must cover it.
        source = """
            import pickle

            def send(sock, message):
                sock.sendall(pickle.dumps(message))
        """
        findings = lint(source, path="repro/wire.py", rules=[PickleBanRule])
        assert rule_ids(findings) == ["pickle-ban"]
        # repro.runtime (locks, retries, breakers) carries no serialised
        # state and stays out of scope.
        assert lint(source, path="repro/runtime/locks.py", rules=[PickleBanRule]) == []

    def test_real_transport_modules_are_clean(self, lint):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        for module in (
            "repro/wire.py",
            "repro/cluster/worker.py",
            "repro/cluster/process.py",
            "repro/cluster/coordinator.py",
        ):
            source = (root / "src" / module).read_text(encoding="utf-8")
            assert lint(source, path=module, rules=[PickleBanRule]) == [], module


class TestExceptHygiene:
    def test_blind_swallow_flagged(self, lint):
        source = """
            def risky(op):
                try:
                    return op()
                except Exception:
                    pass
        """
        findings = lint(source, rules=[ExceptHygieneRule])
        assert rule_ids(findings) == ["except-hygiene"]

    def test_bare_except_flagged(self, lint):
        source = """
            def risky(op):
                try:
                    return op()
                except:
                    return None
        """
        findings = lint(source, rules=[ExceptHygieneRule])
        assert rule_ids(findings) == ["except-hygiene"]

    def test_reraise_is_clean(self, lint):
        source = """
            def risky(op, rollback):
                try:
                    return op()
                except Exception:
                    rollback()
                    raise
        """
        assert lint(source, rules=[ExceptHygieneRule]) == []

    def test_recording_the_error_is_clean(self, lint):
        source = """
            def risky(op, errors):
                try:
                    return op()
                except Exception as error:
                    errors.append(error)
        """
        assert lint(source, rules=[ExceptHygieneRule]) == []

    def test_narrow_handler_out_of_scope(self, lint):
        source = """
            import os

            def cleanup(path):
                try:
                    os.unlink(path)
                except OSError:
                    pass
        """
        assert lint(source, rules=[ExceptHygieneRule]) == []


class TestTimingDiscipline:
    def test_module_clock_call_flagged_in_serving(self, lint):
        source = """
            import time

            def flush(service):
                start = time.perf_counter()
                service.flush()
                return time.perf_counter() - start
        """
        findings = lint(source, path="repro/serving/mod.py", rules=[TimingDisciplineRule])
        assert rule_ids(findings) == ["timing-discipline"] * 2
        assert findings[0].symbol == "flush"

    def test_wall_clock_and_aliased_import_flagged(self, lint):
        source = """
            import time as t

            def stamp():
                return t.time()
        """
        findings = lint(source, path="repro/cluster/mod.py", rules=[TimingDisciplineRule])
        assert rule_ids(findings) == ["timing-discipline"]
        assert "time.time()" in findings[0].message

    def test_from_import_alias_flagged(self, lint):
        source = """
            from time import perf_counter as clock

            def wait_time(lock):
                started = clock()
                with lock:
                    return clock() - started
        """
        findings = lint(source, path="repro/runtime/mod.py", rules=[TimingDisciplineRule])
        assert rule_ids(findings) == ["timing-discipline"] * 2
        assert all("time.perf_counter()" in f.message for f in findings)

    def test_kernel_clock_call_flagged_in_nn(self, lint):
        source = """
            import time

            def replay_timed(kernel):
                start = time.perf_counter()
                kernel()
                return time.perf_counter() - start
        """
        findings = lint(source, path="repro/nn/plan.py", rules=[TimingDisciplineRule])
        assert rule_ids(findings) == ["timing-discipline"] * 2

    def test_obs_helpers_are_clean(self, lint):
        source = """
            from repro import obs

            def flush(service):
                started = obs.now() if obs.metrics_enabled() else 0.0
                service.flush()
                if started:
                    return obs.now() - started
        """
        assert lint(source, path="repro/serving/mod.py", rules=[TimingDisciplineRule]) == []

    def test_sleep_is_not_a_clock(self, lint):
        source = """
            import time

            def backoff():
                time.sleep(0.01)
        """
        assert lint(source, path="repro/cluster/mod.py", rules=[TimingDisciplineRule]) == []

    def test_out_of_scope_packages_unflagged(self, lint):
        source = """
            import time

            def train_epoch(model):
                start = time.perf_counter()
                model.step()
                return time.perf_counter() - start
        """
        assert lint(source, path="repro/training/mod.py", rules=[TimingDisciplineRule]) == []

    def test_inline_disable_suppresses(self, lint):
        source = """
            import time

            def measure(fn):
                start = time.perf_counter()  # repro: disable=timing-discipline
                fn()
                return time.perf_counter() - start  # repro: disable=timing-discipline
        """
        assert lint(source, path="repro/profiling/mod.py", rules=[TimingDisciplineRule]) == []
