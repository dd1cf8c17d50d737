"""Fixture: WB_ACK has a handler arm but is never sent (F-ORPHAN)."""


class MsgKind:
    READ = "read"
    DATA_S = "data_s"
    WB_ACK = "wb_ack"


REQUEST_LANE = frozenset({MsgKind.READ})
REPLY_LANE = frozenset({MsgKind.DATA_S, MsgKind.WB_ACK})


class HomeController:
    def receive(self, msg):
        if msg.kind == MsgKind.READ:
            self.send(MsgKind.DATA_S, msg.src)
        elif msg.kind == MsgKind.WB_ACK:
            self.finish(msg)
        else:
            raise ValueError(msg)

    def finish(self, msg):
        self.count += 1


class NodeController:
    def receive(self, msg):
        if msg.kind == MsgKind.DATA_S:
            self.fill(msg)
        else:
            raise ValueError(msg)

    def fill(self, msg):
        self.count += 1


def boot(home):
    home.send(MsgKind.READ, 0)
