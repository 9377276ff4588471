"""Render the three whole-network label tensors for the worked 8-frame
utterance (alignment 'A A A B B s C C', transcript 'A B s C') and decode
the decodable one to show it reproduces the transcript.
"""

from rnnt_lab import (FrameAlignment, TableModel, build_y1, build_y2, build_y3,
                      greedy_decode, label_logits)

SPACE, A, B, C = 0, 1, 2, 3
BLANK = 4
NAMES = {SPACE: "s", A: "A", B: "B", C: "C", BLANK: "Φ", None: "."}

fa = FrameAlignment(labels=[A, A, A, B, B, SPACE, C, C])
tokens = [A, B, SPACE, C]


def render(name, lt):
    print(f"{name}: masked cells = {int(lt.mask.sum())}")
    t_len, rows = lt.targets.shape
    for u in range(rows - 1, -1, -1):  # token axis upward, like a lattice plot
        line = []
        for t in range(t_len):
            if lt.mask[t, u]:
                line.append(NAMES[int(lt.targets[t, u])])
            else:
                line.append(".")
        print(f"  u={u}  " + " ".join(line))
    print()


render("y1 (all rows carry the frame's alignment label, last row blank)",
       build_y1(fa, tokens, BLANK))
render("y2 (token at its sequence row, blank inserted above)",
       build_y2(fa, tokens, BLANK))
render("y3 (token cells only; the 1-frame pause becomes blank)",
       build_y3(fa, tokens, BLANK, space_id=SPACE))

y2 = build_y2(fa, tokens, BLANK)
hyp = greedy_decode(TableModel(label_logits(y2), blank=BLANK))
print("greedy decode over y2-as-logits:")
print("  tokens     :", " ".join(NAMES[k] for k in hyp.prefix))
print("  emit frames:", hyp.emit_frames)
