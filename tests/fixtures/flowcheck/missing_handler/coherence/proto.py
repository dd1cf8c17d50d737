"""Fixture: DATA_S is sent but no receiver arm handles it (F-UNHANDLED)."""


class MsgKind:
    READ = "read"
    DATA_S = "data_s"


REQUEST_LANE = frozenset({MsgKind.READ})
REPLY_LANE = frozenset({MsgKind.DATA_S})


class HomeController:
    def receive(self, msg):
        if msg.kind == MsgKind.READ:
            self.reply(msg)
        else:
            raise ValueError(msg)

    def reply(self, msg):
        self.send(MsgKind.DATA_S, msg.src)


def boot(home):
    home.send(MsgKind.READ, 0)
