function y = elemchain(a, b, c)
  % One six-operator elementwise tree over long vectors: with fusion it
  % is a single loop and no temporaries, without it six library calls
  % and five intermediate arrays through the buffer pool.
  y = (a + b).*c - a./(b + 2) + c;
end
