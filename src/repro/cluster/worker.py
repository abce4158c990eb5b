"""Process-shard worker: one :class:`~repro.cluster.sharded.LocalShard` behind a socket.

``python -m repro.cluster.worker <fd>`` is the child half of
:class:`~repro.cluster.process.ProcessShard`: it adopts the inherited
socketpair fd, builds the thread backend's shard — a full streaming stack
(model replica → :class:`~repro.serving.service.ForecastService`
micro-batching → :class:`~repro.streaming.forecaster.StreamingForecaster`
store) — from the :class:`~repro.cluster.spec.ServiceSpec` in the
``init`` message, and then serves a strict request/reply command loop
over the pickle-free wire codec until the stream closes.

A request may carry a ``rows`` batch — the coordinator's write-behind
ingest buffer — which is applied through
:meth:`StreamingForecaster.ingest_many` before the command runs; the
reply then acks each entry's (observed, generation), both read under the
store lock that applied the entry.

Each control-plane command in ``_CONTROL`` calls the ``LocalShard``
method of its name with the fields listed there and replies ``{"result":
value}``, so checkpoint chains, migration and failover run the thread
backend's code; any other name, a ``LocalShard`` attribute included, is
an unknown command.  The worker's own handlers are the frame-specific
ones: ``init``, ``forecast_many``, ``flush``, ``fault``, ``metrics``,
``ping`` and ``shutdown``.  Every forecast arrives as a columnar
``forecast_many`` frame, queued as one block
(:meth:`StreamingForecaster.forecast_block`) keyed by the frame's ``seq``
stamp; a flush reply names the blocks it settles by ``seq`` and carries
each one's denormalised forecasts whole.  Every command runs under a
broad handler that ships the error back as a typed payload — a bad
request must never kill the worker, only that request.

Tracing crosses the boundary explicitly: a request carrying
``"trace": true`` runs under a ``worker.<cmd>`` span with tracing forced
on, and the reply carries the exported span subtree for the coordinator
to graft under its own span (:func:`repro.obs.import_spans`).

Exit paths: a ``shutdown`` command (graceful), or EOF on the socket —
the coordinator closed or died, and a worker without a coordinator has
nothing left to serve.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import asdict
from functools import partial
from typing import List, Optional, Tuple

import numpy as np

from .. import obs, wire
from ..errors import EndOfStream
from ..serving.admission import DEFAULT_PRIORITY
from ..streaming.forecaster import StreamingForecaster, _Sweep
from .sharded import LocalShard
from .spec import ServiceSpec

__all__ = ["ShardWorker", "main"]

#: control-plane commands: each calls the ``LocalShard`` method of its
#: name with these request fields (those the request carries)
_CONTROL = {
    "drop": ("tenant",),
    "census": (),
    "export_tenant": ("tenant",),
    "import_tenant": ("tenant", "payload"),
    "stats": (),
    "reset_stats": (),
    "warmup": (),
    "to_state": ("delta",),
    "clear_dirty": (),
    "restore": ("state",),
}


class ShardWorker:
    """The in-process state of one worker: shard, pending forecasts, loop."""

    def __init__(self, channel) -> None:
        self._channel = channel
        self._shard: Optional[LocalShard] = None
        # One entry per queued forecast_many block still awaiting a flush:
        # (frame seq, block rows not refused at admission, sweep).
        self._pending: List[Tuple[int, np.ndarray, _Sweep]] = []
        # Armed by the "fault" command: the next _stall_count commands
        # sleep _stall_seconds before dispatch — a deterministic wedged
        # worker for degradation drills.
        self._stall_seconds = 0.0
        self._stall_count = 0

    # ------------------------------------------------------------------ #
    def run(self) -> None:
        """Serve requests until shutdown or coordinator disappearance."""
        while True:
            try:
                message = wire.recv_message(self._channel)
            except EndOfStream:
                return
            if not isinstance(message, dict) or "cmd" not in message:
                wire.send_message(
                    self._channel,
                    {"error": {"type": "ValueError", "message": "malformed request"}},
                )
                continue
            command = str(message["cmd"])
            if self._stall_count > 0 and command != "fault":
                self._stall_count -= 1
                time.sleep(self._stall_seconds)
            reply = self._dispatch(command, message)
            # Echo the request's sequence stamp on every reply (errors
            # included) so the coordinator can drain replies that outlived
            # their request's timeout.
            if "seq" in message:
                reply["seq"] = message["seq"]
            wire.send_message(self._channel, reply)
            if command == "shutdown" and "error" not in reply:
                return

    def _dispatch(self, command: str, message: dict) -> dict:
        acks = None
        try:
            rows = message.get("rows")
            if rows is not None:
                # Write-behind rows ride ahead of the command they came
                # with, so the command sees them.
                acks = self._ingest_rows(rows)
            if command in _CONTROL:
                handler = partial(self._control, command)
            else:
                handler = getattr(self, f"_cmd_{command}", None)
            if handler is None:
                raise ValueError(f"unknown command {command!r}")
            if message.get("trace"):
                reply = self._traced(command, handler, message)
            else:
                reply = handler(message)
        except Exception as error:
            # Deliberately broad: the error is recorded on the reply and
            # re-raised coordinator-side with its type — a bad request
            # must not take the worker (and its tenants' state) down.
            reply = {"error": wire.error_payload(error)}
        if acks is not None:
            reply["acks"] = acks
        return reply

    def _ingest_rows(self, rows: dict) -> dict:
        """Apply one columnar batch; ack each entry's census watermark."""
        observed, generation = self._require().forecaster.ingest_many(
            rows["tenants"], rows["counts"], rows["values"], rows["timestamps"]
        )
        return {"observed": observed, "generation": generation}

    def _traced(self, command: str, handler, message: dict) -> dict:
        """Run one command under a span tree and ship the tree back.

        The worker is single-threaded, so the process-default recorder
        can be cleared per command: whatever it holds afterwards is
        exactly this command's subtree.
        """
        with obs.observability(tracing=True):
            recorder = obs.default_recorder()
            recorder.clear()
            shard_id = "?" if self._shard is None else self._shard.shard_id
            with obs.span(f"worker.{command}", shard=shard_id):
                reply = handler(message)
            spans = obs.export_spans(recorder.spans())
            recorder.clear()
        reply["spans"] = spans
        return reply

    # ------------------------------------------------------------------ #
    def _require(self) -> LocalShard:
        if self._shard is None:
            raise RuntimeError("worker not initialised: send init first")
        return self._shard

    def _control(self, command: str, message: dict) -> dict:
        fields = {name: message[name] for name in _CONTROL[command] if name in message}
        result = getattr(self._require(), command)(**fields)
        if command == "stats":
            # (service, store) counters as plain dicts for the wire.
            result = [asdict(part) for part in result]
        return {"result": result}

    # ------------------------------------------------------------------ #
    def _cmd_init(self, message: dict) -> dict:
        spec = ServiceSpec.from_state(message["spec"])
        window_capacity = message.get("window_capacity")
        self._shard = LocalShard(
            str(message.get("shard_id", "?")),
            StreamingForecaster(
                spec.build(),
                normalization=str(message.get("normalization", "none")),
                window_capacity=None if window_capacity is None else int(window_capacity),
            ),
        )
        if message.get("warmup", True):
            self._shard.warmup()
        return {"ok": True, "pid": os.getpid()}

    def _cmd_ping(self, message: dict) -> dict:
        return {"ok": True, "pid": os.getpid()}

    def _cmd_shutdown(self, message: dict) -> dict:
        return {"ok": True}

    # ------------------------------------------------------------------ #
    def _cmd_flush(self, message: dict) -> dict:
        flushed = self._require().forecaster.flush()
        return self._resolve_pending(flushed)

    def _cmd_forecast_many(self, message: dict) -> dict:
        """One columnar sweep: tenants, optional per-row covariates, and
        one priority and budget for the whole frame, keyed by its ``seq``."""
        forecaster = self._require().forecaster
        seq = message["seq"]
        _, sweep = forecaster.forecast_block(
            message["tenants"],
            future_numerical=message.get("fn"),
            future_categorical=message.get("fc"),
            priority=str(message.get("priority", DEFAULT_PRIORITY)),
            # The budget is relative: re-anchored on this process's
            # monotonic clock at admission.
            timeout=message.get("budget"),
        )
        refusals: List[tuple] = []
        if sweep is not None:
            # Without skip_missing the block holds every listed tenant.  A
            # shed row fails alone — the rest of the block (and the worker)
            # keeps serving; the coordinator rematerialises its typed error
            # as that row's admission_error.
            rows = np.arange(len(message["tenants"]))
            refused = list(sweep.rows.refused)
            if refused:
                refusals = [_row_error(seq, row, sweep) for row in refused]
                rows = np.delete(rows, refused)
            if len(rows):
                self._pending.append((seq, rows, sweep))
        if not message.get("flush", True):
            return {"flushed": 0, "seqs": [], "values": [], "errors": refusals}
        reply = self._resolve_pending(forecaster.flush())
        reply["errors"] += refusals
        return reply

    def _resolve_pending(self, flushed: int) -> dict:
        """Every pending block's results: the ``seq`` list of the blocks
        settled, and each one's whole denormalised ``[N, H, C]`` values.

        A row whose forward pass failed is reported as ``(seq, row,
        error)`` instead, and re-raised when the coordinator resolves that
        handle while its siblings still succeed; a block with no forecast
        left sends no values.
        """
        seqs: List[int] = []
        values: List[np.ndarray] = []
        errors: List[tuple] = []
        for seq, rows, sweep in self._pending:
            failed = sweep.rows.errors
            if failed:
                bad = np.isin(rows, list(failed))
                errors += [_row_error(seq, row, sweep) for row in rows[bad].tolist()]
                rows = rows[~bad]
            if len(rows):
                seqs.append(seq)
                values.append(sweep.settled())
        self._pending.clear()
        return {"flushed": int(flushed), "seqs": seqs, "values": values, "errors": errors}

    def _cmd_fault(self, message: dict) -> dict:
        """Arm a deterministic stall: the next ``count`` commands sleep first.

        The acknowledgement goes out *before* any stall applies, so the
        arming request itself never times out.
        """
        seconds = float(message.get("stall", 0.0))
        count = int(message.get("count", 1))
        if seconds <= 0 or count < 1:
            raise ValueError(
                f"fault needs stall > 0 and count >= 1, got {seconds}/{count}"
            )
        self._stall_seconds = seconds
        self._stall_count = count
        return {"ok": True, "stall": seconds, "count": count}

    def _cmd_metrics(self, message: dict) -> dict:
        return {"snapshot": obs.default_registry().snapshot()}


def _row_error(seq: int, row: int, sweep: _Sweep) -> tuple:
    """Block row ``row``'s error as ``(seq, row, payload)``; a row that
    admission control refused carries ``"refused": true``."""
    payload = wire.error_payload(sweep.rows.errors[row])
    if row in sweep.rows.refused:
        payload["refused"] = True
    return (seq, row, payload)


def main(argv=None) -> None:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if len(argv) != 1:
        raise SystemExit("usage: python -m repro.cluster.worker <fd>")
    channel = wire.claim_worker_fd(int(argv[0]))
    try:
        ShardWorker(channel).run()
    finally:
        channel.close()


if __name__ == "__main__":
    main()
