function s = spcg(A, b, iters)
  % Conjugate gradients with a diagonal preconditioner over a sparse
  % (CSR) operator: every iteration is one SpMV plus dot/axpy work.
  n = size(A, 1);
  x = zeros(n, 1);
  r = b - A*x;
  d = diag(A);
  z = r ./ d;
  p = z;
  rz = dot(r, z);
  for iter = 1:iters
    q = A*p;
    alpha = rz / dot(p, q);
    x = x + alpha*p;
    r = r - alpha*q;
    z = r ./ d;
    rznew = dot(r, z);
    beta = rznew / rz;
    rz = rznew;
    p = z + beta*p;
  end
  s = sum(x) + sqrt(dot(r, r));
end
