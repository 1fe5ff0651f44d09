"""Real-socket transport: length-prefixed frames over asyncio streams.

The second implementation of the :class:`~repro.net.transport.Transport`
seam (the first is the simulator).  Semantics deliberately mirror the
datagram model every protocol is written against:

- ``send`` never blocks, and raises only
  :class:`~repro.net.codec.Unencodable` for a payload outside the
  wire vocabulary (as the simulator does): frames queue on a lazy
  per-destination :class:`ServiceConnection` and a dead or unreachable
  peer silently drops them (counted in ``stats.messages_dropped``),
  exactly as the simulator drops traffic to a crashed node.  The RPC
  layer's retransmission machinery provides reliability on top, same
  as over the sim.
- delivery order per (src, dst) pair follows the stream, matching the
  jitter-free simulator link;
- a malformed inbound frame (:class:`~repro.net.frame.FrameError`)
  closes only the connection it arrived on.

Each daemon process (or each in-process daemon, in the transport
bench) owns one ``TcpTransport`` listening on its address-book entry;
the address book is shared mutable state so ephemeral ports chosen by
``listen`` become visible to every transport built over the same book.
"""

from __future__ import annotations

import asyncio
import logging
from collections import deque
from typing import Callable, Deque, Dict, List, Tuple

from repro.net import frame
from repro.net.message import Message
from repro.net.sim import NetworkStats
from repro.net.transport import MessageHandler, Transport

logger = logging.getLogger(__name__)

#: Give a peer this many wall seconds to accept before dropping.
CONNECT_TIMEOUT = 2.0

Address = Tuple[str, int]


class ServiceConnection:
    """Lazy outbound stream to one peer, with datagram drop semantics.

    A single pump task drains the frame queue through one connection;
    connect or write failure drops everything queued (the peer is
    treated as dead, like a crashed sim node) and the next ``enqueue``
    starts a fresh connection attempt.  ``close`` detaches cleanly:
    frames enqueued afterwards drop silently.
    """

    def __init__(self, transport: "TcpTransport", dst: int) -> None:
        self.transport = transport
        self.dst = dst
        self.closed = False
        self._queue: Deque[bytes] = deque()
        self._wakeup = asyncio.Event()
        self._writer: asyncio.StreamWriter | None = None
        self._task = transport.loop.create_task(self._pump())

    @property
    def queued(self) -> int:
        return len(self._queue)

    def enqueue(self, data: bytes) -> None:
        if self.closed:
            self.transport.stats.messages_dropped += 1
            return
        self._queue.append(data)
        self._wakeup.set()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._wakeup.set()
        self._task.cancel()
        self._drop_queued()
        self._reset_writer()

    def _drop_queued(self) -> None:
        if self._queue:
            self.transport.stats.messages_dropped += len(self._queue)
            self._queue.clear()

    def _reset_writer(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
            except RuntimeError:
                pass   # loop already closed during interpreter teardown
            self._writer = None

    async def _pump(self) -> None:
        while not self.closed:
            if not self._queue:
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            try:
                if self._writer is None:
                    host, port = self.transport.addresses[self.dst]
                    _reader, self._writer = await asyncio.wait_for(
                        asyncio.open_connection(host, port),
                        CONNECT_TIMEOUT,
                    )
                while self._queue:
                    self._writer.write(self._queue.popleft())
                await self._writer.drain()
            except asyncio.CancelledError:
                raise
            except (OSError, asyncio.TimeoutError, KeyError):
                # Unreachable peer: everything queued for it is lost,
                # like datagrams into a crashed node.  The queue is
                # left empty so the next send retries from scratch.
                self._drop_queued()
                self._reset_writer()


class TcpTransport(Transport):
    """Frames the binary codec over asyncio streams."""

    def __init__(self, addresses: Dict[int, Address],
                 loop: asyncio.AbstractEventLoop) -> None:
        #: node id -> (host, port); shared and mutated by ``listen``.
        self.addresses = addresses
        self.loop = loop
        self.stats = NetworkStats()
        self._handlers: Dict[int, MessageHandler] = {}
        self._servers: Dict[int, asyncio.AbstractServer] = {}
        self._connections: Dict[int, ServiceConnection] = {}
        self._taps: List[MessageHandler] = []
        self._delivery_taps: List[MessageHandler] = []
        #: live server-side reader task -> its stream writer
        self._readers: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._closed = False

    # --- Server side -----------------------------------------------------

    async def listen(self, node_id: int) -> int:
        """Accept frames for ``node_id`` at its address-book entry.

        Binds the configured (host, port); with port 0 the kernel
        picks one, and the book entry is updated so peers sharing the
        book can reach it.  Returns the bound port.
        """
        host, port = self.addresses.get(node_id, ("127.0.0.1", 0))
        server = await asyncio.start_server(self._serve_stream, host, port)
        bound = server.sockets[0].getsockname()[1]
        self.addresses[node_id] = (host, bound)
        self._servers[node_id] = server
        return bound

    async def _serve_stream(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._readers[task] = writer
            task.add_done_callback(lambda t: self._readers.pop(t, None))
        try:
            while True:
                prefix = await reader.readexactly(frame.LENGTH_PREFIX.size)
                (length,) = frame.LENGTH_PREFIX.unpack(prefix)
                if not 0 < length <= frame.MAX_FRAME_BYTES:
                    raise frame.FrameError(f"bad frame length {length}")
                body = await reader.readexactly(length)
                self._dispatch(frame.decode_body(body))
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass   # peer went away; streams have no goodbye handshake
        except frame.FrameError as exc:
            logger.warning("dropping connection after a corrupt frame: %s",
                           exc)
        finally:
            try:
                writer.close()
            except RuntimeError:
                pass   # loop already closed during interpreter teardown

    def _dispatch(self, message: Message) -> None:
        handler = self._handlers.get(message.dst)
        if handler is None:
            self.stats.messages_dropped += 1
            return
        self.stats.messages_delivered += 1
        for tap in self._delivery_taps:
            tap(message)
        try:
            handler(message)
        except Exception:
            # Handler isolation, as in the sim: one poisoned message
            # must not kill the reader for the whole connection.
            logger.exception(
                "handler for %s failed on node %d",
                message.msg_type.value, message.dst,
            )

    # --- Transport interface ---------------------------------------------

    def attach(self, node_id: int, handler: MessageHandler) -> None:
        self._handlers[node_id] = handler

    def detach(self, node_id: int) -> None:
        self._handlers.pop(node_id, None)
        server = self._servers.pop(node_id, None)
        if server is not None:
            server.close()

    def node_ids(self) -> List[int]:
        """All peers in the address book (the deployment membership,
        not just locally attached daemons)."""
        return sorted(self.addresses)

    def send(self, message: Message) -> None:
        if self._closed:
            return
        data = frame.encode_frame(message)
        self.stats.record_send(message, len(data))
        for tap in self._taps:
            tap(message)
        if message.dst in self._handlers:
            # Local destination: loop back through the event loop
            # (delivery stays asynchronous, as over a wire) without
            # paying for a socket to ourselves.
            self.loop.call_soon(self._dispatch, message)
            return
        if message.dst not in self.addresses:
            self.stats.messages_dropped += 1
            return
        connection = self._connections.get(message.dst)
        if connection is None or connection.closed:
            connection = ServiceConnection(self, message.dst)
            self._connections[message.dst] = connection
        connection.enqueue(data)

    # --- Observation (same hooks as the simulator) ------------------------

    def tap(self, handler: MessageHandler) -> None:
        self._taps.append(handler)

    def tap_delivery(self, handler: MessageHandler) -> None:
        self._delivery_taps.append(handler)

    # --- Lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for connection in self._connections.values():
            connection.close()
        self._connections.clear()
        for server in self._servers.values():
            server.close()
        self._servers.clear()
        # Close inbound connections rather than cancelling their reader
        # tasks: the readers see EOF and exit through their normal
        # peer-went-away path.
        for writer in list(self._readers.values()):
            try:
                writer.close()
            except RuntimeError:
                pass   # loop already closed during interpreter teardown
        self._handlers.clear()

    async def aclose(self) -> None:
        """Close and wait for sockets and reader tasks to release."""
        servers = list(self._servers.values())
        readers = list(self._readers.keys())
        self.close()
        for server in servers:
            try:
                await server.wait_closed()
            except Exception:
                logger.debug("server close raced with shutdown",
                             exc_info=True)
        if readers:
            await asyncio.gather(*readers, return_exceptions=True)
