"""Static methods called through ``self``: each argument's taint lands
on the parameter it is passed to, and no receiver is bound."""


class Store:
    def load(self, idx):
        return [idx]


class MiniEnclave:
    def __init__(self):
        self.store = Store()

    @staticmethod
    def describe(data, label):
        print(label)  # ok: only the label reaches stdout
        return len(data)

    @staticmethod
    def shout(data, label):
        print(data)  # R6 when a caller passes secrets as data
        return label

    def quiet(self, idx):
        col = self.store.load(idx)
        return self.describe(col, "column")

    def loud(self, idx):
        col = self.store.load(idx)
        return self.shout(col, "column")
