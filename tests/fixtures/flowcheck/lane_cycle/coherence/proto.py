"""Fixture: READ -> READX -> READ message-dependency cycle (C-CYCLE).

Both edges are request->request, so C-SAMELANE fires on each edge and
C-CYCLE on the strongly connected component they form.
"""


class MsgKind:
    READ = "read"
    READX = "readx"


REQUEST_LANE = frozenset({MsgKind.READ, MsgKind.READX})


class HomeController:
    def receive(self, msg):
        if msg.kind == MsgKind.READ:
            self.send(MsgKind.READX, msg.src)
        elif msg.kind == MsgKind.READX:
            self.send(MsgKind.READ, msg.src)
        else:
            raise ValueError(msg)


def boot(home):
    home.send(MsgKind.READ, 0)
