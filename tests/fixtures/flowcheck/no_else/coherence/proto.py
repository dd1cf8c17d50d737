"""Fixture: a receiver whose guard chain can fall through (F-NOELSE)."""


class MsgKind:
    READ = "read"


REQUEST_LANE = frozenset({MsgKind.READ})


class HomeController:
    def receive(self, msg):
        if msg.kind == MsgKind.READ:
            self.note(msg)

    def note(self, msg):
        self.count += 1


def boot(home):
    home.send(MsgKind.READ, 0)
