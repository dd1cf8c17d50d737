"""Fixture: PING is declared in no lane table (C-NOLANE)."""


class MsgKind:
    PING = "ping"


class HomeController:
    def receive(self, msg):
        if msg.kind == MsgKind.PING:
            self.note(msg)
        else:
            raise ValueError(msg)

    def note(self, msg):
        self.count += 1


def boot(home):
    home.send(MsgKind.PING, 0)
