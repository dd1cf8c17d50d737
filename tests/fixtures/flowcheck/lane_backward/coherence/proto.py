"""Fixture: a DATA_S handler generates READ, reply -> request (C-BACKWARD).

The backward edge also closes READ -> DATA_S -> READ, so C-CYCLE fires
on the same component.
"""


class MsgKind:
    READ = "read"
    DATA_S = "data_s"


REQUEST_LANE = frozenset({MsgKind.READ})
REPLY_LANE = frozenset({MsgKind.DATA_S})


class HomeController:
    def receive(self, msg):
        if msg.kind == MsgKind.READ:
            self.send(MsgKind.DATA_S, msg.src)
        else:
            raise ValueError(msg)


class NodeController:
    def receive(self, msg):
        if msg.kind == MsgKind.DATA_S:
            self.send(MsgKind.READ, 0)
        else:
            raise ValueError(msg)


def boot(home):
    home.send(MsgKind.READ, 0)
